// Command xflow-worker runs one worker node of a distributed Crossflow
// deployment: it connects to the broker, registers with the master, and
// serves jobs under the chosen worker-side policy until the workflow's
// stop broadcast arrives.
//
// Usage:
//
//	xflow-worker -broker localhost:7070 -name worker-0 -scheduler bidding \
//	    -net 12.5 -rw 60 -cache 20000 -time-scale 100
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/netsim"
	"crossflow/internal/transport"
	"crossflow/internal/vclock"
	"crossflow/internal/workload"
)

func main() {
	var (
		brokerAddr = flag.String("broker", "localhost:7070", "broker address")
		name       = flag.String("name", "worker-0", "unique worker name")
		scheduler  = flag.String("scheduler", "bidding", "worker policy (must match the master's)")
		netMBps    = flag.Float64("net", 12.5, "network speed in MB/s")
		rwMBps     = flag.Float64("rw", 60, "read/write speed in MB/s")
		noise      = flag.Float64("noise", 0.2, "execution-time speed noise amplitude")
		cacheMB    = flag.Float64("cache", 20000, "local cache capacity in MB")
		seed       = flag.Int64("seed", 0, "noise seed (0 derives from the name)")
		scale      = flag.Float64("time-scale", 100, "clock compression factor (1 = real time)")
	)
	flag.Parse()

	pol, ok := core.PolicyByName(*scheduler)
	if !ok {
		fmt.Fprintf(os.Stderr, "xflow-worker: unknown scheduler %q\n", *scheduler)
		os.Exit(1)
	}
	if *seed == 0 {
		for _, c := range *name {
			*seed = *seed*31 + int64(c)
		}
	}

	clk := vclock.NewScaledReal(*scale)
	// A long-lived worker must survive broker restarts: a DialAuto client
	// redials with capped exponential backoff and re-registers with the
	// master (which idempotently re-acks a known name) on every
	// reconnect, instead of exiting on the first dropped TCP connection.
	port, err := transport.DialAuto(*brokerAddr, *name, 0, clk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xflow-worker: dial:", err)
		os.Exit(1)
	}
	defer port.Close()
	workerName := *name
	port.SetOnReconnect(func(p *transport.Client) {
		fmt.Fprintf(os.Stderr, "xflow-worker: %s reconnected to broker (attempt %d), re-registering\n",
			workerName, p.Reconnects())
		p.Send(engine.MasterName, engine.MsgRegister{Worker: workerName})
	})

	st := engine.NewWorkerState(engine.WorkerSpec{
		Name:    *name,
		Net:     netsim.Speed{BaseMBps: *netMBps, NoiseAmp: *noise},
		RW:      netsim.Speed{BaseMBps: *rwMBps, NoiseAmp: *noise},
		CacheMB: *cacheMB,
		Seed:    *seed,
	}, nil)
	w := engine.NewWorker(clk, port, workload.Workflow(), st, nil, pol.NewAgent(st))
	fmt.Printf("xflow-worker: %s (%s policy, %.1fMB/s net, %.1fMB/s rw) serving…\n",
		*name, pol.Name, *netMBps, *rwMBps)

	start := time.Now()
	w.Start()
	clk.Wait() // returns when the stop broadcast closes the loops

	s := st.Cache.Stats()
	fmt.Printf("xflow-worker: %s done: %d jobs, %d hits, %d misses, %.1fMB downloaded, %v wall\n",
		*name, w.JobsDone(), s.Hits, s.Misses, st.Link.DownloadedMB(),
		time.Since(start).Round(time.Millisecond))
}
