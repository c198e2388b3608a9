//! The syscall host: emulated files, sockets, and randomness.
//!
//! This is the simulator's stand-in for the Linux environment of the
//! paper's evaluation (§3.1): taint enters through `read` on files and
//! through `accept`/`recv` on sockets, exactly the sources libdft hooks.
//! Connections carry a per-connection *trusted* flag so the
//! Apache-25/50/75 policies — where a fraction of requests come from
//! trusted clients and are not tainted — can be reproduced.

use latch_dift::policy::SourceKind;
use std::collections::{HashMap, VecDeque};

/// File descriptor reserved for console output.
pub const FD_STDOUT: u32 = 1;

/// A queued inbound connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// Bytes the peer will send.
    pub data: Vec<u8>,
    /// Whether the connection is from a trusted client (not tainted).
    pub trusted: bool,
}

#[derive(Debug, Clone)]
enum FdState {
    File { name: String, pos: usize },
    Listener,
    Conn { inbox: Vec<u8>, pos: usize, trusted: bool, outbox: Vec<u8> },
}

/// Result of a host read/recv.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostRead {
    /// Bytes delivered (possibly fewer than requested; empty at EOF).
    pub bytes: Vec<u8>,
    /// The taint-source class, when the fd is a taint source.
    pub source: Option<SourceKind>,
    /// Whether the data came from a trusted peer.
    pub trusted: bool,
}

/// The emulated operating environment.
#[derive(Debug, Clone)]
pub struct SyscallHost {
    vfs: HashMap<String, Vec<u8>>,
    fds: HashMap<u32, FdState>,
    next_fd: u32,
    pending: VecDeque<Connection>,
    console: Vec<u8>,
    rng: u64,
    exit_code: Option<u32>,
}

impl Default for SyscallHost {
    fn default() -> Self {
        Self::new()
    }
}

impl SyscallHost {
    /// Creates an empty host with a fixed default RNG seed.
    pub fn new() -> Self {
        Self {
            vfs: HashMap::new(),
            fds: HashMap::new(),
            next_fd: 3,
            pending: VecDeque::new(),
            console: Vec::new(),
            rng: 0x9E3779B97F4A7C15,
            exit_code: None,
        }
    }

    /// Installs a file into the virtual filesystem (builder style).
    pub fn with_file(mut self, name: &str, data: impl Into<Vec<u8>>) -> Self {
        self.vfs.insert(name.to_owned(), data.into());
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = seed;
        self
    }

    /// Queues an inbound connection for a future `accept`.
    pub fn push_connection(&mut self, conn: Connection) {
        self.pending.push_back(conn);
    }

    /// Number of connections waiting to be accepted.
    pub fn pending_connections(&self) -> usize {
        self.pending.len()
    }

    /// Everything written to stdout so far.
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// The exit code passed to `Exit`, if the program exited.
    pub fn exit_code(&self) -> Option<u32> {
        self.exit_code
    }

    /// Records a program exit.
    pub fn exit(&mut self, code: u32) {
        self.exit_code = Some(code);
    }

    /// `open`: returns a new fd, or `None` if the path is absent.
    pub fn open(&mut self, path: &str) -> Option<u32> {
        if !self.vfs.contains_key(path) {
            return None;
        }
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(
            fd,
            FdState::File {
                name: path.to_owned(),
                pos: 0,
            },
        );
        Some(fd)
    }

    /// `socket`: creates a listening socket.
    pub fn socket(&mut self) -> u32 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(fd, FdState::Listener);
        fd
    }

    /// `accept`: dequeues a pending connection. Returns the connection fd
    /// and its trust flag, or `None` when nothing is pending or `fd` is
    /// not a listener.
    pub fn accept(&mut self, fd: u32) -> Option<(u32, bool)> {
        match self.fds.get(&fd) {
            Some(FdState::Listener) => {}
            _ => return None,
        }
        let conn = self.pending.pop_front()?;
        let cfd = self.next_fd;
        self.next_fd += 1;
        let trusted = conn.trusted;
        self.fds.insert(
            cfd,
            FdState::Conn {
                inbox: conn.data,
                pos: 0,
                trusted,
                outbox: Vec::new(),
            },
        );
        Some((cfd, trusted))
    }

    /// `read`/`recv`: delivers up to `len` bytes from the fd.
    pub fn read(&mut self, fd: u32, len: u32) -> HostRead {
        match self.fds.get_mut(&fd) {
            Some(FdState::File { name, pos }) => {
                let data = self.vfs.get(name).map(Vec::as_slice).unwrap_or(&[]);
                let start = (*pos).min(data.len());
                let end = (start + len as usize).min(data.len());
                *pos = end;
                HostRead {
                    bytes: data[start..end].to_vec(),
                    source: Some(SourceKind::File),
                    trusted: false,
                }
            }
            Some(FdState::Conn { inbox, pos, trusted, .. }) => {
                let start = (*pos).min(inbox.len());
                let end = (start + len as usize).min(inbox.len());
                let bytes = inbox[start..end].to_vec();
                *pos = end;
                HostRead {
                    bytes,
                    source: Some(SourceKind::Socket),
                    trusted: *trusted,
                }
            }
            _ => HostRead {
                bytes: Vec::new(),
                source: None,
                trusted: false,
            },
        }
    }

    /// `write`/`send`: accepts bytes into the fd's output. Returns the
    /// number of bytes consumed (0 for unknown fds other than stdout).
    pub fn write(&mut self, fd: u32, bytes: &[u8]) -> u32 {
        if fd == FD_STDOUT {
            self.console.extend_from_slice(bytes);
            return bytes.len() as u32;
        }
        match self.fds.get_mut(&fd) {
            Some(FdState::Conn { outbox, .. }) => {
                outbox.extend_from_slice(bytes);
                bytes.len() as u32
            }
            Some(FdState::File { .. }) => bytes.len() as u32, // writes discarded
            _ => 0,
        }
    }

    /// Bytes sent so far on a connection fd.
    pub fn sent(&self, fd: u32) -> Option<&[u8]> {
        match self.fds.get(&fd) {
            Some(FdState::Conn { outbox, .. }) => Some(outbox),
            _ => None,
        }
    }

    /// `close`: releases an fd. Unknown fds are ignored.
    pub fn close(&mut self, fd: u32) {
        self.fds.remove(&fd);
    }

    /// Deterministic pseudo-random generator (splitmix64-style step).
    pub fn rand(&mut self) -> u32 {
        self.rng = self.rng.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        (z ^ (z >> 31)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_and_read_file() {
        let mut host = SyscallHost::new().with_file("in.txt", b"abcdef".to_vec());
        let fd = host.open("in.txt").unwrap();
        let r = host.read(fd, 4);
        assert_eq!(r.bytes, b"abcd");
        assert_eq!(r.source, Some(SourceKind::File));
        assert!(!r.trusted);
        let r = host.read(fd, 10);
        assert_eq!(r.bytes, b"ef");
        assert!(host.read(fd, 1).bytes.is_empty(), "EOF");
    }

    #[test]
    fn missing_file_fails_open() {
        let mut host = SyscallHost::new();
        assert!(host.open("nope").is_none());
    }

    #[test]
    fn socket_accept_recv_send() {
        let mut host = SyscallHost::new();
        host.push_connection(Connection {
            data: b"GET /".to_vec(),
            trusted: false,
        });
        host.push_connection(Connection {
            data: b"PING".to_vec(),
            trusted: true,
        });
        let lfd = host.socket();
        let (c1, t1) = host.accept(lfd).unwrap();
        assert!(!t1);
        let r = host.read(c1, 16);
        assert_eq!(r.bytes, b"GET /");
        assert_eq!(r.source, Some(SourceKind::Socket));
        assert_eq!(host.write(c1, b"200 OK"), 6);
        assert_eq!(host.sent(c1).unwrap(), b"200 OK");
        let (c2, t2) = host.accept(lfd).unwrap();
        assert!(t2, "second connection is trusted");
        assert!(host.read(c2, 4).trusted);
        assert!(host.accept(lfd).is_none(), "queue drained");
    }

    #[test]
    fn accept_on_non_listener_fails() {
        let mut host = SyscallHost::new().with_file("f", b"x".to_vec());
        let fd = host.open("f").unwrap();
        assert!(host.accept(fd).is_none());
        assert!(host.accept(999).is_none());
    }

    #[test]
    fn stdout_accumulates() {
        let mut host = SyscallHost::new();
        host.write(FD_STDOUT, b"hello ");
        host.write(FD_STDOUT, b"world");
        assert_eq!(host.console(), b"hello world");
    }

    #[test]
    fn close_releases_fd() {
        let mut host = SyscallHost::new().with_file("f", b"x".to_vec());
        let fd = host.open("f").unwrap();
        host.close(fd);
        assert!(host.read(fd, 1).source.is_none());
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let mut a = SyscallHost::new().with_seed(42);
        let mut b = SyscallHost::new().with_seed(42);
        let mut c = SyscallHost::new().with_seed(43);
        let va: Vec<u32> = (0..4).map(|_| a.rand()).collect();
        let vb: Vec<u32> = (0..4).map(|_| b.rand()).collect();
        let vc: Vec<u32> = (0..4).map(|_| c.rand()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn exit_code_recorded() {
        let mut host = SyscallHost::new();
        assert_eq!(host.exit_code(), None);
        host.exit(3);
        assert_eq!(host.exit_code(), Some(3));
    }
}
