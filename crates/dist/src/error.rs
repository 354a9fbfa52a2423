//! The distributed runtime's error type.

/// Errors surfaced by transports, the wire codec, and the Master/Worker
/// runtime.
#[derive(Debug)]
pub enum DistError {
    /// An underlying socket or stream failed.
    Io(std::io::Error),
    /// A frame arrived but its payload is not a valid [`Message`].
    ///
    /// [`Message`]: crate::Message
    Decode(String),
    /// The peer violated the protocol (unexpected message, bad deployment).
    Protocol(String),
    /// No (matching) reply arrived within the configured timeout.
    Timeout(String),
    /// The link to the peer is down (closed socket, killed in-process pair).
    LinkDown(String),
    /// The operation needs a live worker but the worker is marked dead.
    WorkerDown,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "transport i/o error: {e}"),
            DistError::Decode(why) => write!(f, "undecodable message: {why}"),
            DistError::Protocol(why) => write!(f, "protocol violation: {why}"),
            DistError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            DistError::LinkDown(why) => write!(f, "link down: {why}"),
            DistError::WorkerDown => write!(f, "worker is down"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<fluid_tensor::codec::CodecError> for DistError {
    fn from(e: fluid_tensor::codec::CodecError) -> Self {
        DistError::Decode(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_cause() {
        assert!(DistError::Timeout("hello".into())
            .to_string()
            .contains("hello"));
        assert!(DistError::LinkDown("killed".into())
            .to_string()
            .contains("killed"));
        assert!(DistError::WorkerDown.to_string().contains("down"));
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error;
        let e = DistError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }
}
