// Command tcpnode is the shard-process endpoint of the TCP transport
// backend (internal/transport): it dials the coordinator with backoff,
// rebuilds the workload from the replayed spec, connects to every other
// shard, and runs the rounds with them point to point until they end the
// run together (or the coordinator closes the connection). It is normally
// spawned by a coordinator binary (-transport=tcp on cmd/walks or
// cmd/mst), not run by hand.
//
// The process keeps a flight recorder (internal/flightrec) of its
// recent transport events. At a clean finish the dump is shipped when
// SPEC asks, i.e. for an -obsout run, inside the TELEMETRY frame; on a
// serve error, panic or SIGTERM it is dumped as schema-valid JSON to the
// -flightrec path (stderr when unset — which the coordinator pipes
// through), so a dead shard leaves evidence on whichever side survives.
//
// Fault injection for the failure tests is env-driven so every shard
// gets identical argv: TCPNODE_FAIL_SHARD/TCPNODE_FAIL_ROUND make that
// shard drop its connections just before it steps that round, whichever
// frame would carry the step (ROUND, or SENDS for a step held back);
// TCPNODE_STALL_SHARD/TCPNODE_STALL_ROUND make it stop at the same point
// while holding its connections open, for its peers to time out on.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"almostmix/internal/cliutil"
	"almostmix/internal/flightrec"
	"almostmix/internal/transport"
	_ "almostmix/internal/transport/workloads"
)

func main() {
	connect := flag.String("connect", "", "coordinator address to dial (host:port, required)")
	shard := flag.Int("shard", -1, "shard index assigned by the coordinator (required)")
	dialBudget := flag.Duration("dialbudget", 10*time.Second, "total dial retry budget")
	flightOut := flag.String("flightrec", "", "flight-recorder dump path on death/panic/SIGTERM (default: stderr)")
	flag.Parse()
	if *connect == "" {
		cliutil.Fail("missing -connect (coordinator host:port)")
	}
	cliutil.Listen("connect", *connect)
	cliutil.Min("shard", *shard, 0)
	cliutil.Min("dialbudget", int(*dialBudget), 1)

	rec := flightrec.New("shard", *shard, flightrec.DefaultCapacity)

	// SIGTERM (the coordinator's reap, or an operator kill) dumps the
	// ring before the process dies with the default disposition.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	go func() {
		<-sigc
		rec.Record(flightrec.KindSignal, "", -1, -1, 0, "SIGTERM")
		dumpRing(*flightOut, rec, flightrec.ReasonSigterm, "terminated by SIGTERM")
		signal.Stop(sigc)
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
	}()
	defer func() {
		if p := recover(); p != nil {
			rec.Record(flightrec.KindPanic, "", -1, -1, 0, fmt.Sprint(p))
			dumpRing(*flightOut, rec, flightrec.ReasonPanic, fmt.Sprint(p))
			panic(p)
		}
	}()

	cfg := transport.ShardConfig{
		FailAtRound:  envRoundFor(*shard, "TCPNODE_FAIL_SHARD", "TCPNODE_FAIL_ROUND"),
		StallAtRound: envRoundFor(*shard, "TCPNODE_STALL_SHARD", "TCPNODE_STALL_ROUND"),
		Recorder:     rec,
	}
	conn, err := transport.DialShard(*connect, *dialBudget)
	if err == nil {
		err = transport.ServeShard(conn, *shard, cfg)
	}
	if err != nil {
		dumpRing(*flightOut, rec, flightrec.ReasonError, err.Error())
		fmt.Fprintln(os.Stderr, "tcpnode:", err)
		os.Exit(1)
	}
}

// dumpRing writes the recorder's attributed dump; dump failures are
// reported but never mask the original failure.
func dumpRing(path string, rec *flightrec.Recorder, reason, errMsg string) {
	d := rec.Dump(reason)
	d.Error = errMsg
	if err := flightrec.WriteDump(path, d); err != nil {
		fmt.Fprintln(os.Stderr, "tcpnode:", err)
	}
}

// envRoundFor reads a (shard selector, round) env pair and returns the
// round when the selector names this shard, else 0 (disabled).
func envRoundFor(shard int, shardVar, roundVar string) int {
	sv := os.Getenv(shardVar)
	if sv == "" {
		return 0
	}
	s, err := strconv.Atoi(sv)
	if err != nil || s != shard {
		return 0
	}
	r, err := strconv.Atoi(os.Getenv(roundVar))
	if err != nil || r < 1 {
		cliutil.Fail("invalid %s %q: need a round >= 1", roundVar, os.Getenv(roundVar))
	}
	return r
}
