//! GNN models with hand-derived backward passes, operating chunk-at-a-time.
//!
//! The original HongTu delegates dense math to PyTorch/cuSparse and gets
//! gradients from autograd. Here every layer implements its backward pass
//! explicitly, which is what makes the paper's *recomputation-caching-
//! hybrid* strategy (§4.2) expressible: a layer's one backward body,
//! [`layer::GnnLayer::backward`], starts from
//!
//! - the reloaded layer input — the pure **recomputation** path: the
//!   vertex representations always live in CPU memory, so recompute the
//!   forward pass and then differentiate
//!   ([`layer::GnnLayer::backward_from_input`]);
//! - the cached aggregate output `a^l` — the **hybrid** path for models
//!   whose AGGREGATE yields no edge intermediates (GCN, GraphSAGE, GIN,
//!   CommNet, GGNN): skip AGGREGATE and recompute only UPDATE
//!   ([`layer::GnnLayer::backward_from_agg`]).
//!
//! It computes only what a caller reads: given `∇z` already through the
//! activation (ReLU's mask read off the stored output) it recomputes no
//! `z`, and without a request for `∇h` (the first layer's input is
//! features) it stops at the parameter gradients.
//!
//! Models provided: GCN (Eq. 2), GAT (Eq. 3, single head, plus a
//! multi-head wrapper), GraphSAGE-mean, GIN, CommNet, and a gated GGNN
//! ("GGCN" in the paper's terminology). All are validated against finite
//! differences in [`gradcheck`]. Trained models serialize through
//! [`serialize`].

#![forbid(unsafe_code)]
// Indexed loops over chunk/edge structures are deliberate in the kernels:
// the indices double as positions into parallel edge arrays.
#![allow(clippy::needless_range_loop)]

pub mod commnet;
pub mod gat;
pub mod gat_multihead;
pub mod gcn;
pub mod ggnn;
pub mod gin;
pub mod gradcheck;
pub mod layer;
pub mod loss;
pub mod model;
pub mod sage;
pub mod serialize;

pub use commnet::CommNetLayer;
pub use gat::GatLayer;
pub use gat_multihead::MultiHeadGatLayer;
pub use gcn::GcnLayer;
pub use ggnn::GgnnLayer;
pub use gin::GinLayer;
pub use layer::{GnnLayer, LayerFlops, LayerForward, LayerGrads};
pub use loss::{masked_cross_entropy, MaskedLoss};
pub use model::{GnnModel, ModelKind};
pub use sage::SageLayer;
pub use serialize::{load_model, load_model_file, save_model, save_model_file};
