// Command perfbench is the provenance service's benchmark. It builds a
// seeded corpus, serves it in-process from server.New over a loopback
// listener, drives one workload (a traffic mix) against it, checks every
// answer against graph search over the generated runs, and prints one
// JSON line of metrics:
//
//	perfbench --workload hot-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones a client sees; with
// --trace 1 a traced run of the same workload and seed gives the
// per-layer ones. README.md describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: hot-read, cold-read or ingest")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "seconds of traffic to measure")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	flag.Parse()
	wl, err := lookupWorkload(*name)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	if err := pinToOneCPU(); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	logf("%s", wl.describe(*seed))
	b := &bench{wl: wl, seed: *seed, total: time.Duration(*seconds * float64(time.Second))}
	var res *result
	if *trace == 1 {
		res, err = b.traced(context.Background())
	} else {
		res, err = b.untraced(context.Background())
	}
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		logf("wrong answers: %s", b.tally.firstWrong)
		os.Exit(1)
	}
}
