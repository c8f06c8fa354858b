package remote

// PauseHeartbeats stops the link's keep-alives without closing the
// connection — a frozen or partitioned worker, from the server's point of
// view. Launched jobs keep running and their completions still send, which
// is exactly the stale-completion case the lease check exists for.
func (a *Agent) PauseHeartbeats() {
	a.conn.KeepAlive(0)
}
