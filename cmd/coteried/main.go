// Command coteried hosts one coterie replica node as a network daemon:
// the replica protocol, a co-located coordinator per item, and the capi
// client API, all served by the tcpnet transport. A cluster is N coteried
// processes sharing one address book; any of them accepts client reads,
// writes and epoch checks for any item.
//
//	coteried -node 0 -cluster 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002 -items 4
//
// On startup the daemon prints "READY <node> <addr>" to stdout once it is
// serving; a spawning harness (cmd/loadgen -net tcp) waits for that line.
// SIGINT/SIGTERM shut it down gracefully.
//
// A restarted daemon has lost its in-memory replica state; restart it
// with -recovering so it rejoins as the paper's recovering replica
// (excluded from quorums until an epoch change readmits it and
// propagation rebuilds its value) instead of silently serving stale data.
// See internal/daemon for the full flag set and behavior.
package main

import (
	"fmt"
	"os"

	"coterie/internal/daemon"
)

func main() {
	if err := daemon.RunMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coteried:", err)
		os.Exit(1)
	}
}
