//! The `camj serve` daemon as a child process, and a line-protocol
//! client connection to it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use crate::proc::{self, Exit};

/// No single reply may take longer than this; a hung daemon fails the
/// run instead of stalling it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Pause between the daemon reporting its address and the first
/// connection (see `Daemon::spawn`).
const ACCEPT_SETTLE: Duration = Duration::from_millis(2);

/// One client connection speaking newline-delimited JSON.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line (without newline) and collects the reply
    /// lines up to and including the `done` frame for `id`.
    pub fn request(&mut self, line: &str, id: u64) -> std::io::Result<Vec<String>> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        let done = format!("{{\"id\":{id},\"frame\":\"done\"");
        let mut frames = Vec::new();
        loop {
            let mut reply = String::new();
            if self.reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection mid-reply",
                ));
            }
            if reply.ends_with('\n') {
                reply.pop();
            }
            let last = reply.starts_with(&done);
            frames.push(reply);
            if last {
                return Ok(frames);
            }
        }
    }
}

/// A running `camj serve --listen 127.0.0.1:0` child.
pub struct Daemon {
    child: Child,
    pub addr: String,
    control: Conn,
    stderr: Option<std::thread::JoinHandle<String>>,
    reaped: bool,
}

impl Daemon {
    /// Spawns the daemon with `workers` workers, waits for its bound
    /// address, and makes one `stats` round trip so it is known to
    /// answer.
    pub fn spawn(camj: &Path, workers: usize) -> Result<Self, String> {
        let mut child = Command::new(camj)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .env("RAYON_NUM_THREADS", crate::THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("could not start {}: {e}", camj.display()))?;
        let mut err = BufReader::new(child.stderr.take().expect("piped"));
        let mut addr = None;
        let mut seen = String::new();
        loop {
            let mut line = String::new();
            match err.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            if let Some(rest) = line.trim_end().strip_prefix("serve: listening on ") {
                addr = rest.split_whitespace().next().map(str::to_owned);
                break;
            }
            seen.push_str(&line);
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = proc::reap(&child);
            return Err(format!("daemon did not report its address: {seen}"));
        };
        // Connect only once the daemon sits in its accept poll, so every
        // set-up pays the same wait instead of racing its first accept.
        std::thread::sleep(ACCEPT_SETTLE);
        let control = match Conn::connect(&addr) {
            Ok(c) => c,
            Err(e) => {
                let _ = child.kill();
                let _ = proc::reap(&child);
                return Err(format!("could not connect to the daemon at {addr}: {e}"));
            }
        };
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = std::io::Read::read_to_string(&mut err, &mut rest);
            rest
        });
        let mut daemon = Self {
            child,
            control,
            addr,
            stderr: Some(stderr),
            reaped: false,
        };
        let reply = daemon
            .control
            .request("{\"id\":1,\"kind\":\"stats\"}", 1)
            .map_err(|e| format!("first stats request failed: {e}"))?;
        if !reply
            .iter()
            .any(|l| l.starts_with("{\"id\":1,\"frame\":\"result\""))
        {
            return Err(format!("unexpected stats reply: {reply:?}"));
        }
        Ok(daemon)
    }

    /// The daemon's pid, for `/proc` reads.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// A request on the daemon's control connection.
    pub fn control(&mut self, line: &str, id: u64) -> std::io::Result<Vec<String>> {
        self.control.request(line, id)
    }

    /// Sends `shutdown` as request id 3 (the id the committed serve
    /// transcript uses), waits for the process to exit, and returns the
    /// reply lines with the exit status.
    pub fn shutdown(mut self) -> Result<(Vec<String>, Exit), String> {
        let reply = self
            .control
            .request("{\"id\":3,\"kind\":\"shutdown\"}", 3)
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        self.reaped = true;
        let exit = proc::reap(&self.child).map_err(|e| format!("reaping the daemon: {e}"))?;
        let stderr = self
            .stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        if exit.code != 0 {
            return Err(format!("daemon exited with {}: {stderr}", exit.code));
        }
        Ok((reply, exit))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = proc::reap(&self.child);
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}
