//! `repro` survives a reader that goes away: a closed stdout stops the
//! printing, not the run (`repro watch --once | head -1` must exit 0).

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn repro_list_into_a_closed_pipe_exits_cleanly() {
    // The read end is closed before the child starts, so its first write
    // meets a broken pipe whatever the scheduling.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for repro");
    assert!(!stderr.contains("panicked"), "repro panicked:\n{stderr}");
    assert_eq!(status.code(), Some(0), "stderr:\n{stderr}");
}
