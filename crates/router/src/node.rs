//! In-process serve nodes.
//!
//! A [`ServeNode`] is one complete serving instance — batching server,
//! engine workers, TCP front-end — bound to its own loopback port, with a
//! kill/restart lifecycle: exactly the unit the router shards over and
//! the drill kills. [`DynamicCluster`](crate::DynamicCluster) boots N of
//! them behind announcing membership and adds the cluster-level
//! orchestration the single-node layer cannot express.
//!
//! A restarted node binds a *fresh* ephemeral port rather than re-binding
//! its old one (the old socket may linger in `TIME_WAIT`); routers learn
//! the new address from the node's next `Join`/`NodeHeartbeat`, which is
//! exactly what a real deployment's service discovery would do.

use fluid_models::{ConvNet, SubnetSpec};
use fluid_serve::{
    serve_tcp, Backend, ElasticHandle, EngineBackend, ServeConfig, ServeError, Server,
};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The live half of a [`ServeNode`]; absent while the node is killed.
struct Running {
    server: Server,
    shutdown: Arc<AtomicBool>,
    front: std::thread::JoinHandle<std::io::Result<()>>,
}

/// One serving instance with its own TCP endpoint and a kill/restart
/// lifecycle: batching server, engine workers, TCP front-end, bound to
/// its own loopback port — the unit the router shards over and the
/// chaos drill kills.
pub struct ServeNode {
    id: String,
    addr: String,
    net: ConvNet,
    spec: SubnetSpec,
    workers: usize,
    cfg: ServeConfig,
    /// Monotonic swap generation, so replacement worker names stay unique
    /// across repeated hot swaps.
    swaps: usize,
    running: Option<Running>,
}

impl ServeNode {
    /// Builds the node's worker backends for the current model.
    fn backends(&self, name_tag: &str) -> Vec<Box<dyn Backend>> {
        (0..self.workers)
            .map(|w| {
                Box::new(EngineBackend::new(
                    &format!("{}-{name_tag}{w}", self.id),
                    self.net.clone(),
                    self.spec.clone(),
                )) as Box<dyn Backend>
            })
            .collect()
    }

    /// Starts a node named `id` with `workers` engine workers serving
    /// `net`/`spec`, listening on a fresh loopback port.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when the listener cannot bind;
    /// server-start failures pass through.
    pub fn spawn(
        id: &str,
        net: &ConvNet,
        spec: &SubnetSpec,
        workers: usize,
        cfg: ServeConfig,
    ) -> Result<ServeNode, ServeError> {
        let mut node = ServeNode {
            id: id.to_string(),
            addr: String::new(),
            net: net.clone(),
            spec: spec.clone(),
            workers,
            cfg,
            swaps: 0,
            running: None,
        };
        node.boot()?;
        Ok(node)
    }

    /// Brings the node up on a fresh ephemeral port.
    fn boot(&mut self) -> Result<(), ServeError> {
        let server = Server::start(self.cfg.clone(), self.backends("w"))?;
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| ServeError::Transport(format!("bind {}: {e}", self.id)))?;
        self.addr = listener
            .local_addr()
            .map_err(|e| ServeError::Transport(e.to_string()))?
            .to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let front = {
            let (handle, shutdown) = (server.handle(), Arc::clone(&shutdown));
            std::thread::spawn(move || serve_tcp(listener, handle, shutdown))
        };
        self.running = Some(Running {
            server,
            shutdown,
            front,
        });
        Ok(())
    }

    /// The node's id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The node's current `host:port` (changes across restarts).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the node is currently serving.
    pub fn is_up(&self) -> bool {
        self.running.is_some()
    }

    /// The running server's elastic pool handle.
    ///
    /// # Errors
    ///
    /// [`ServeError::Elastic`] while the node is killed.
    pub fn elastic(&self) -> Result<ElasticHandle, ServeError> {
        match &self.running {
            Some(running) => Ok(running.server.elastic()),
            None => Err(ServeError::Elastic(format!("node {} is down", self.id))),
        }
    }

    /// The running server's submission handle (what a membership
    /// [`Announcer`](fluid_serve::Announcer) reads queue depth from).
    ///
    /// # Errors
    ///
    /// [`ServeError::Elastic`] while the node is killed.
    pub fn handle(&self) -> Result<fluid_serve::ServerHandle, ServeError> {
        match &self.running {
            Some(running) => Ok(running.server.handle()),
            None => Err(ServeError::Elastic(format!("node {} is down", self.id))),
        }
    }

    /// Tears the node down abruptly: the front-end stops, open
    /// connections die, queued requests drain with errors. Idempotent.
    pub fn kill(&mut self) {
        if let Some(running) = self.running.take() {
            running.shutdown.store(true, Ordering::SeqCst);
            let _ = running.front.join();
            let _ = running.server.shutdown();
        }
    }

    /// Boots the node again (killing it first if it is still up) on a
    /// *new* ephemeral port, with the node's current model.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`spawn`](ServeNode::spawn).
    pub fn restart(&mut self) -> Result<(), ServeError> {
        self.kill();
        self.boot()
    }

    /// Replaces this node's model in place via the elastic pool's
    /// batch-boundary-atomic [`ElasticHandle::hot_swap`]: zero dropped
    /// requests, node stays on its port. The stored model is updated so a
    /// later restart comes back with the *new* weights.
    ///
    /// # Errors
    ///
    /// [`ServeError::Elastic`] while the node is killed or when the swap
    /// itself fails (e.g. old workers did not drain within
    /// `retire_timeout`).
    pub fn hot_swap(
        &mut self,
        net: &ConvNet,
        spec: &SubnetSpec,
        retire_timeout: Duration,
    ) -> Result<(), ServeError> {
        let elastic = self.elastic()?;
        self.net = net.clone();
        self.spec = spec.clone();
        self.swaps += 1;
        let tag = format!("swap{}-w", self.swaps);
        elastic.hot_swap(self.backends(&tag), retire_timeout)?;
        Ok(())
    }
}

impl Drop for ServeNode {
    fn drop(&mut self) {
        self.kill();
    }
}

impl std::fmt::Debug for ServeNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeNode")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .field("up", &self.is_up())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluid_models::{Arch, FluidModel};
    use fluid_serve::TcpClient;
    use fluid_tensor::{Prng, Tensor};

    fn model() -> (ConvNet, SubnetSpec) {
        let model = FluidModel::new(Arch::tiny_28(), &mut Prng::new(11));
        let spec = model.spec("combined100").expect("spec").clone();
        (model.net().clone(), spec)
    }

    #[test]
    fn node_restart_moves_ports_and_keeps_serving() {
        let (net, spec) = model();
        let mut node =
            ServeNode::spawn("solo", &net, &spec, 1, ServeConfig::default()).expect("spawn");
        let first_addr = node.addr().to_string();
        let x = Tensor::from_fn(&[1, 1, 28, 28], |i| (i % 5) as f32 / 5.0);
        let mut client = TcpClient::connect(&first_addr).expect("connect");
        let before = client.infer(&x).expect("infer before restart");
        node.kill();
        assert!(!node.is_up());
        node.kill(); // idempotent
        node.restart().expect("restart");
        assert!(node.is_up());
        assert_ne!(node.addr(), first_addr, "restart must take a fresh port");
        let mut client = TcpClient::connect(node.addr()).expect("reconnect");
        let after = client.infer(&x).expect("infer after restart");
        assert!(
            before.allclose(&after, 0.0),
            "weights changed across restart"
        );
    }
}
