//! [`SiteServer`] — one durable store served over a localhost socket.
//!
//! The server owns a `TcpListener` on an ephemeral `127.0.0.1` port and
//! a single accept thread; connections are served one at a time, one
//! framed request per response (see the `proto` module). That is exactly
//! the load shape [`RemoteSite`](crate::RemoteSite) generates — a fresh
//! connection per request — and keeps the server simple enough to kill
//! and restart mid-test, which is the failure mode the subsystem
//! exists to exercise.
//!
//! The hosted store is a [`DurableStore`], never a bare catalog: a
//! killed server restarts from its own changelog, and the tail request
//! is answered straight from that changelog directory with a fresh
//! [`TailReader`] per request (the reader is strictly read-only, so
//! concurrent tails cannot disturb the store).

use crate::proto::{Request, Response};
use crate::site::spans_of;
use dh_catalog::durable::{config_from_record, DurableStore};
use dh_catalog::{ColumnStore, WriteBatch};
use dh_wal::tail::{TailReader, TailStatus};
use dh_wal::{read_framed, write_framed, WalRecord};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long a connection may sit idle mid-request before the server
/// gives up on it. Generous: the client writes whole requests at once.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Polling rounds a tail request will spend waiting out a torn tail or
/// half-rotated segment before answering with what it has.
const TAIL_ROUNDS: usize = 100;

/// A durable store served over the site wire protocol on a localhost
/// socket. Dropping (or [`stop`](SiteServer::stop)ping) the server
/// closes the listener — in-flight connections die with it, which is
/// precisely how a killed site looks to its peers.
pub struct SiteServer {
    addr: SocketAddr,
    store: Arc<DurableStore>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl SiteServer {
    /// Binds an ephemeral `127.0.0.1` port and starts serving `store`.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn spawn(store: Arc<DurableStore>) -> io::Result<SiteServer> {
        Self::spawn_on(store, ("127.0.0.1", 0))
    }

    /// [`spawn`](SiteServer::spawn) on an explicit address — how a
    /// restarted site comes back where its peers already look for it
    /// (clients hold the address, not the connection, so the next
    /// request simply succeeds again).
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn spawn_on(
        store: Arc<DurableStore>,
        addr: impl std::net::ToSocketAddrs,
    ) -> io::Result<SiteServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            thread::spawn(move || accept_loop(&listener, &store, &stop))
        };
        Ok(SiteServer {
            addr,
            store,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted store.
    pub fn store(&self) -> &Arc<DurableStore> {
        &self.store
    }

    /// Stops accepting and joins the accept thread. The port is
    /// released on return; subsequent connects are refused. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SiteServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, store: &Arc<DurableStore>, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // One connection at a time: the client opens a fresh
                // connection per request, so serial service is fair and
                // a wedged peer is bounded by the I/O timeout.
                let _ = serve_connection(stream, store);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn serve_connection(mut stream: TcpStream, store: &Arc<DurableStore>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    while let Some(payload) = read_framed(&mut stream)? {
        let response = match Request::decode(&payload) {
            Ok(request) => execute(store, request),
            Err(why) => Response::Err(crate::site::SiteError::Protocol(why)),
        };
        write_framed(&mut stream, &response.encode())?;
    }
    Ok(())
}

fn execute(store: &Arc<DurableStore>, request: Request) -> Response {
    match request {
        Request::Epoch => Response::Epoch(store.epoch()),
        Request::Columns => Response::Columns(store.columns()),
        Request::Probe => Response::Probe {
            epoch: store.epoch(),
            columns: store.columns().len() as u64,
        },
        Request::Register(WalRecord::Register { column, config }) => {
            let config = match config_from_record(&config) {
                Ok(config) => config,
                Err(e) => return Response::Err(crate::site::SiteError::Remote(e.to_string())),
            };
            match store.register(&column, config) {
                Ok(()) => Response::Register,
                Err(e) => Response::store_err(&e),
            }
        }
        Request::Commit(WalRecord::Commit { columns, .. }) => {
            let mut batch = WriteBatch::new();
            for (column, ops) in columns {
                batch.extend(&column, ops);
            }
            match store.commit(batch) {
                Ok(epoch) => Response::Commit(epoch),
                Err(e) => Response::store_err(&e),
            }
        }
        // Request::decode only builds Register/Commit from the matching
        // record kinds; anything else is a codec bug.
        Request::Register(_) | Request::Commit(_) => Response::Err(
            crate::site::SiteError::Protocol("record kind mismatch".to_string()),
        ),
        Request::Spans { column, epoch } => {
            let snap = if epoch == 0 {
                store.snapshot(&column)
            } else {
                store.snapshot_set_at(&[&column], epoch).and_then(|set| {
                    set.get(&column)
                        .cloned()
                        .ok_or_else(|| dh_catalog::CatalogError::UnknownColumn(column.clone()))
                })
            };
            match snap {
                Ok(snap) => Response::Spans(spans_of(&snap)),
                Err(e) => Response::store_err(&e),
            }
        }
        Request::Tail { from } => {
            let mut reader = TailReader::new(store.wal_dir(), store.kind().tag());
            reader.seek(from);
            let mut records = Vec::new();
            let mut caught_up = false;
            for _ in 0..TAIL_ROUNDS {
                match reader.poll() {
                    Ok(poll) => {
                        let empty = poll.records.is_empty();
                        records.extend(poll.records);
                        match poll.status {
                            TailStatus::CaughtUp if empty => {
                                caught_up = true;
                                break;
                            }
                            // Drained what was visible; one more round
                            // confirms nothing landed behind the poll.
                            TailStatus::CaughtUp => {}
                            TailStatus::Lost => break,
                        }
                    }
                    Err(e) => return Response::Err(crate::site::SiteError::Remote(e.to_string())),
                }
            }
            Response::Tail(crate::site::SiteTail { records, caught_up })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_catalog::durable::{DurableOptions, StoreKind};
    use dh_catalog::{AlgoSpec, ColumnConfig};
    use dh_core::MemoryBudget;
    use dh_wal::tmp::TempDir;
    use dh_wal::SyncPolicy;

    fn open_store(dir: &TempDir) -> Arc<DurableStore> {
        let options = DurableOptions {
            sync: SyncPolicy::Off,
            ..DurableOptions::default()
        };
        Arc::new(DurableStore::open(dir.path(), StoreKind::Sharded, options).unwrap())
    }

    #[test]
    fn server_stops_and_releases_its_port() {
        let dir = TempDir::new("site_server_stop");
        let store = open_store(&dir);
        store
            .register(
                "c",
                ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0)),
            )
            .unwrap();
        let mut server = SiteServer::spawn(Arc::clone(&store)).unwrap();
        let addr = server.addr();
        // Live: a raw connect succeeds.
        TcpStream::connect(addr).unwrap();
        server.stop();
        // Stopped: the listener is gone, connects are refused.
        assert!(TcpStream::connect(addr).is_err());
        // The store survives the server.
        assert_eq!(store.columns(), vec!["c".to_string()]);
    }
}
