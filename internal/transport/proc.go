package transport

// Proc: the in-process Transport backend. It is a thin adapter — build
// the instance, hand it to the unchanged congest engines, harvest — so
// routing a binary through the Transport interface with Proc produces
// bit-identical results (and trace bytes) to calling the engines
// directly, at zero added steady-state allocation.

import (
	"errors"

	"almostmix/internal/congest"
)

// Proc runs workloads on the in-process CONGEST round loop. Workers is
// congest.Options.Workers, i.e. exactly congest.Network.SetWorkers: 1 is
// the sequential reference (one part, inline), w > 1 drives w parts (part
// 0 on the caller, each other part on its own goroutine), w <= 0 (the zero
// Proc included) one worker per CPU.
type Proc struct {
	Workers int
}

// Name implements Transport.
func (Proc) Name() string { return "proc" }

// Run implements Transport.
func (p Proc) Run(spec Spec, opts Options) (Result, error) {
	_, inst, err := buildInstance(spec)
	if err != nil {
		return Result{}, err
	}
	net := congest.NewNetwork(inst.Graph, inst.Programs, inst.Source).Configure(congest.Options{
		Workers: p.Workers,
		Probe:   opts.Probe,
		Metrics: opts.Metrics,
		Faults:  inst.Faults,
	})
	var rounds int
	if inst.Quiet {
		rounds, err = net.RunUntilQuiet(inst.MaxRounds)
	} else {
		rounds, err = net.Run(inst.MaxRounds)
	}
	// A round-limit exit still harvests: the retry drivers (workloads)
	// inspect the partial output and totals of a budget-exhausted
	// attempt. Other errors return nothing.
	if err != nil && !errors.Is(err, congest.ErrRoundLimit) {
		return Result{}, err
	}
	res := Result{Rounds: rounds, Messages: net.Messages()}
	if inst.Faults != nil {
		res.Faults = inst.Faults.Totals()
	}
	var rerr error
	if res.Output, rerr = inst.reduce(inst.harvest(nil, 0, inst.Graph.N())); rerr != nil {
		return Result{}, rerr
	}
	return res, err
}
