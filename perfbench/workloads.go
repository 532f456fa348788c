package main

import (
	"fmt"
	"strings"
)

// Settings every workload shares. The server runs over the mem: store
// (nothing is ever flushed: blobs live in RAM for the life of the
// process) with an explicit session cache of cacheSize runs, which is
// what each workload's corpus is sized against.
const (
	specName  = "QBLAST" // stand-in workflow all runs are generated over
	specSeed  = 1        // fixes which QBLAST stand-in: one workflow, many runs
	cacheSize = 16

	// PUT documents: putBodies distinct run XML bodies of about
	// putVertices vertices, written over writeNames names.
	putBodies   = 32
	putVertices = 1000
	writeNames  = 32

	// Streams: streamNames runs cycle append -> finish -> delete, each
	// with a run of its own of about streamVertices vertices, sent
	// streamBatch events per append. checkpointEvery is the server's
	// default Config.CheckpointEvery, so every full append also
	// checkpoints.
	streamNames     = 4
	streamVertices  = 1000
	checkpointEvery = 256
	streamBatch     = checkpointEvery

	batchPairs = 256 // pairs per /batch request, named by occurrence name
	rpqPool    = 24  // distinct /rpq patterns
)

// mix weights the request kinds of a workload's traffic.
type mix [numKinds]int

// workload is one traffic mix over one corpus. The table below is the
// single declaration of every workload; README.md explains each choice.
type workload struct {
	name     string
	runs     int     // corpus runs
	vertices int     // target vertices per corpus run
	theta    float64 // zipfian skew of run popularity; 0 is uniform
	warm     bool    // set-up touches every corpus run once
	mix      mix
}

var workloads = []workload{
	{
		name: "hot-read", runs: 12, vertices: 2000, theta: 0.99, warm: true,
		mix: mix{opReachable: 60, opBatch: 25, opLineage: 10, opRPQ: 5},
	},
	{
		name: "cold-read", runs: 256, vertices: 1000, theta: 0,
		mix: mix{opReachable: 70, opBatch: 30},
	},
	{
		name: "ingest", runs: 12, vertices: 2000, theta: 0.99, warm: true,
		mix: mix{opPut: 35, opStream: 20, opDelete: 5, opReachable: 25, opBatch: 15},
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// writes reports whether the workload's own mix writes. The server
// accepts writes on every workload, because every round's probe sends
// some.
func (w *workload) writes() bool {
	return w.mix[opPut]+w.mix[opStream]+w.mix[opDelete] > 0
}

// describe is the one-line record of the workload printed to stderr at
// the start of a run.
func (w *workload) describe(seed int64) string {
	var parts []string
	for k, wt := range w.mix {
		if wt > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", opKind(k), wt))
		}
	}
	return fmt.Sprintf("workload %s seed=%d runs=%d vertices=%d theta=%g warm=%v mix=%s "+
		"batch=%d cache=%d backend=mem: (never flushed)",
		w.name, seed, w.runs, w.vertices, w.theta, w.warm, strings.Join(parts, ","),
		batchPairs, cacheSize)
}
