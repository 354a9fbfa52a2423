//! # fluid-dist
//!
//! The distributed runtime of the Fluid DyDNN reproduction: everything that
//! moves branches and activations between devices.
//!
//! The paper's system splits one fluid model across a Master (which owns
//! the trained weights) and one or more Workers. Because fluid branches are
//! *standalone by construction* — a branch's conv windows never read
//! another block's activations, and the FC head decomposes into partial
//! products — distribution reduces to three small mechanisms, each a module
//! here:
//!
//! * **Wire + transports** ([`Message`], [`Transport`], [`read_frame`] /
//!   [`write_frame`]): a hand-rolled length-prefixed codec over TCP
//!   ([`TcpTransport`]) or in-process channels ([`InProcTransport`], with
//!   a [`FailureSwitch`] for failure injection); a [`FaultPlan`] wraps
//!   either with seeded latency, loss, duplication and partitions.
//! * **Deployment** ([`extract_branch_weights`] / [`load_branch_weights`]):
//!   ship exactly the weight windows a branch needs; extract → load is
//!   bit-exact.
//! * **Runtime** ([`Master`], [`Worker`], [`WorkerEngine`]): one Master
//!   coordinates 1…N Workers — the device count is the length of the
//!   transport list it was built over, and the paper's two-device system
//!   is [`Master::new`]. High-Accuracy mode sums partial logits of one
//!   input across devices; High-Throughput mode serves independent streams
//!   ([`Mode`]). Link loss degrades service instead of killing it — the
//!   survivors keep answering with their own branches, and
//!   [`Master::reattach_worker`] + re-deploy restores the full model.
//!
//! See `docs/ARCHITECTURE.md` at the workspace root for the frame layout
//! and the failure/recovery handshake.
//!
//! ## Example: two devices in one process
//!
//! ```
//! use fluid_dist::{
//!     extract_branch_weights, InProcTransport, Master, MasterConfig, Worker,
//! };
//! use fluid_models::{Arch, FluidModel};
//! use fluid_tensor::{Prng, Tensor};
//!
//! let arch = Arch::tiny_28();
//! let model = FluidModel::new(arch.clone(), &mut Prng::new(0));
//!
//! let (master_side, worker_side) = InProcTransport::pair();
//! let worker = std::thread::spawn(move || Worker::new(worker_side, arch, "w0").run());
//!
//! let mut master = Master::new(master_side, model.net().clone(), MasterConfig::default());
//! assert_eq!(master.await_hello().unwrap(), "w0");
//!
//! // Keep lower50 local, ship upper50's weight windows to the worker.
//! let lower = model.spec("lower50").unwrap().branches[0].clone();
//! let upper = model.spec("combined100").unwrap().branches[1].clone();
//! let windows = extract_branch_weights(model.net(), &upper);
//! master.deploy_local(lower);
//! master.deploy_remote(upper, windows).unwrap();
//!
//! let logits = master.infer_ha(&Tensor::zeros(&[1, 1, 28, 28])).unwrap();
//! assert_eq!(logits.dims(), &[1, 10]);
//! master.shutdown_worker();
//! worker.join().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deploy;
mod engine;
mod error;
mod fault;
mod frame;
mod master;
mod meter;
mod spawn;
mod transport;
mod wire;
mod worker;

pub use deploy::{extract_branch_weights, load_branch_weights};
pub use engine::WorkerEngine;
pub use error::DistError;
pub use fault::{FaultPlan, FaultReport, FaultSpec, FaultedTransport, FaultyLink, PartitionWindow};
pub use frame::{read_frame, write_frame, MAX_FRAME_BYTES};
pub use master::{Master, MasterConfig};
pub use meter::ThroughputMeter;
pub use spawn::{spawn_ha_pair, SpawnedPair};
pub use transport::{FailureSwitch, InProcTransport, TcpTransport, Transport};
pub use wire::{GossipNode, Message, Mode, NamedTensor};
pub use worker::{Worker, WorkerExit};
