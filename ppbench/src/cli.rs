//! Drives the released `pinpoint` binary as a user would: one process
//! per `check`, or one long-lived `serve` session over stdio.

use crate::json::{self, quote, Json};
use crate::sys;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest one `check` process, or one `serve` reply, may take before
/// the analyzer is killed and the operation counted as failed (the
/// reference workload takes well under a second).
const DEADLINE: Duration = Duration::from_secs(30);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// One finished `pinpoint check` process.
pub struct CheckRun {
    pub wall: Duration,
    /// The `--json` report list.
    pub reports: Json,
    /// Bytes of the report list, for digests and byte comparisons.
    pub stdout: String,
    /// The `--stats-json` document.
    pub stats: Json,
}

/// The analyzer binary, run in its own working directory `cwd`, so a
/// walk of `cwd` finds anything it writes beside the paths it is given.
pub struct Pinpoint {
    pub bin: PathBuf,
    pub cwd: PathBuf,
}

impl Pinpoint {
    /// Runs `pinpoint check FILE --threads 1 --json --stats-json STATS
    /// EXTRA…`. Any outcome but a parseable report list with exit code 0
    /// or 1, no panic and no truncated search is an error.
    pub fn check(&self, file: &Path, extra: &[&str], stats: &Path) -> Result<CheckRun, String> {
        let t = Instant::now();
        let mut child = Command::new(&self.bin)
            .current_dir(&self.cwd)
            .arg("check")
            .arg(file)
            .args(["--threads", "1", "--json", "--stats-json"])
            .arg(stats)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", self.bin.display()))?;
        let pid = child.id();
        let stdout = read_all(child.stdout.take().expect("piped stdout"));
        let stderr = read_all(child.stderr.take().expect("piped stderr"));
        let (done, finished) = mpsc::channel::<()>();
        let watchdog = std::thread::spawn(move || {
            let expired = matches!(
                finished.recv_timeout(DEADLINE),
                Err(mpsc::RecvTimeoutError::Timeout)
            );
            if expired {
                // SAFETY: `kill` takes plain integers. `pid` is our child,
                // which stays unreaped until this thread has been joined.
                unsafe { kill(pid as i32, 9) };
            }
            expired
        });
        // Wait for the exit without reaping, stop the watchdog, then reap.
        let exited = sys::wait_exit_unreaped(pid);
        drop(done);
        let expired = watchdog.join().expect("watchdog thread does not panic");
        let status = child.wait();
        let (stdout, stderr) = (stdout.join(), stderr.join());
        let wall = t.elapsed();
        exited.map_err(|e| format!("check: {e}"))?;
        let status = status.map_err(|e| format!("check: {e}"))?;
        if expired {
            return Err(format!("check killed after {DEADLINE:?}"));
        }
        let stdout = stdout.expect("reader thread does not panic")?;
        let stderr = stderr.expect("reader thread does not panic")?;
        let stderr = String::from_utf8_lossy(&stderr);
        if stderr.contains("panicked") {
            return Err(format!("check panicked: {}", stderr.trim()));
        }
        match status.code() {
            Some(0 | 1) => {}
            other => return Err(format!("check exited with {other:?}: {}", stderr.trim())),
        }
        let stdout = String::from_utf8(stdout).map_err(|e| e.to_string())?;
        let reports = json::parse(stdout.trim()).map_err(|e| format!("report list: {e}"))?;
        let stats = std::fs::read_to_string(stats)
            .map_err(|e| format!("stats document: {e}"))
            .and_then(|s| json::parse(&s).map_err(|e| format!("stats document: {e}")))?;
        truncation(&stats)?;
        Ok(CheckRun {
            wall,
            reports,
            stdout,
            stats,
        })
    }
}

/// Reads `pipe` to its end on a thread of its own.
fn read_all(mut pipe: impl Read + Send + 'static) -> JoinHandle<Result<Vec<u8>, String>> {
    std::thread::spawn(move || {
        let mut buf = Vec::new();
        pipe.read_to_end(&mut buf)
            .map(|_| buf)
            .map_err(|e| format!("analyzer output: {e}"))
    })
}

/// An error when a stats document records a search cut short by its
/// budget: such a source's outcome is incomplete.
pub fn truncation(stats: &Json) -> Result<(), String> {
    match stats.count("stages.detect.budget_exhausted") {
        n if n > 0.0 => Err(format!("{n} source searches hit detect.budget_exhausted")),
        _ => Ok(()),
    }
}

/// A `pinpoint serve` process speaking pinpoint-rpc-v2 on stdio, with
/// one session `s`. Replies arrive through a reader thread, so a reply
/// can be waited for with a deadline.
pub struct Serve {
    child: Child,
    stdin: ChildStdin,
    lines: mpsc::Receiver<std::io::Result<String>>,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
}

impl Serve {
    /// Spawns the server in `cwd` and negotiates the protocol.
    pub fn spawn(pp: &Pinpoint) -> Result<Serve, String> {
        let mut child = Command::new(&pp.bin)
            .current_dir(&pp.cwd)
            .args(["serve", "--workers", "1", "--threads", "1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn serve: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || loop {
            let mut line = String::new();
            match stdout.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    if tx.send(Ok(line)).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                    break;
                }
            }
        });
        let mut serve = Serve {
            child,
            stdin,
            lines,
            reader: Some(reader),
            next_id: 0,
        };
        serve.send(r#""cmd":"hello","proto":"pinpoint-rpc-v2""#)?;
        serve.reply()?;
        Ok(serve)
    }

    /// Sends one request (the members after `id`) without waiting.
    pub fn send(&mut self, members: &str) -> Result<(), String> {
        let line = format!("{{\"id\":\"{}\",{members}}}\n", self.next_id);
        self.next_id += 1;
        self.stdin
            .write_all(line.as_bytes())
            .and_then(|_| self.stdin.flush())
            .map_err(|e| format!("serve stdin: {e}"))
    }

    /// Reads one reply; a reply that is not `"ok": true` is an error, and
    /// so is none within the deadline, after which the server is killed.
    pub fn reply(&mut self) -> Result<Json, String> {
        let line = match self.lines.recv_timeout(DEADLINE) {
            Ok(Ok(line)) => line,
            Ok(Err(e)) => return Err(format!("serve stdout: {e}")),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err("serve closed its output".into())
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let _ = self.child.kill();
                return Err(format!("no serve reply within {DEADLINE:?}; killed"));
            }
        };
        let v = json::parse(line.trim()).map_err(|e| format!("serve reply: {e}"))?;
        match v.get("ok") {
            Some(Json::Bool(true)) => Ok(v),
            _ => Err(format!("serve replied {}", line.trim())),
        }
    }

    /// `open` of `file` in session `s`.
    pub fn open(&mut self, file: &Path) -> Result<Json, String> {
        self.send(&format!(
            r#""cmd":"open","session":"s","path":{}"#,
            quote(&file.to_string_lossy())
        ))?;
        self.reply()
    }

    /// Sends `update` of `file` then `check`, and returns the check's
    /// report list once both replies are in.
    pub fn update_check(&mut self, file: &Path) -> Result<Json, String> {
        self.send(&format!(
            r#""cmd":"update","session":"s","path":{}"#,
            quote(&file.to_string_lossy())
        ))?;
        self.send(r#""cmd":"check","session":"s""#)?;
        self.reply()?;
        self.check_reply()
    }

    /// `check` of every checker in session `s`.
    pub fn check(&mut self) -> Result<Json, String> {
        self.send(r#""cmd":"check","session":"s""#)?;
        self.check_reply()
    }

    fn check_reply(&mut self) -> Result<Json, String> {
        let mut v = self.reply()?;
        match &mut v {
            Json::Obj(members) => members
                .iter()
                .position(|(k, _)| k == "reports")
                .map(|i| members.swap_remove(i).1)
                .ok_or_else(|| "check reply without reports".to_string()),
            _ => Err("check reply is not an object".into()),
        }
    }

    /// The session's stats document.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.send(r#""cmd":"stats","session":"s""#)?;
        self.reply()
    }

    /// Sends `quit` and waits for the process to end.
    pub fn quit(mut self) -> Result<(), String> {
        self.send(r#""cmd":"quit""#)?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        match status.code() {
            Some(0) => Ok(()),
            other => Err(format!("serve exited with {other:?}")),
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        // The child has ended, so its output is closed and the reader
        // stops.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}
