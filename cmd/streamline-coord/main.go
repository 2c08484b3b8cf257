// Command streamline-coord runs a named demo pipeline through Env.Execute
// and prints its deterministic output. The flags only configure the Env:
// with -workers N it is the coordinator of a distributed STREAMLINE job — it
// listens for N worker processes (cmd/streamline-worker), distributes the
// plan and injects checkpoint barriers — and with -workers 0 it runs the
// identical pipeline single-process. Diffing the two outputs is the
// distribution smoke test.
//
//	streamline-coord -pipeline wordcount -workers 2 -listen 127.0.0.1:7171
//	streamline-coord -pipeline wordcount -workers 0
//
// With -supervise N the job is self-healing (WithSupervision): periodic
// checkpoints go to -ckpt-dir, and on any failure the coordinator restores
// the newest one and relaunches — onto respawned or rejoining workers, or
// in-process with -workers 0 — up to N times.
// The recovery trajectory (detect→restored downtime per restart) prints to
// stderr.
//
//	streamline-coord -pipeline windowed -workers 2 -supervise 5 \
//	    -ckpt-dir /tmp/ckpt -ckpt-every 200ms -hb-interval 100ms -hb-timeout 1s
//
// Arguments after the flags are passed to the pipeline builder, e.g.
//
//	streamline-coord -pipeline windowed -workers 2 -- -events 12000
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/pipelines"
	"repro/streamline"
)

func main() {
	pipeline := flag.String("pipeline", "wordcount", "registered pipeline to run")
	workers := flag.Int("workers", 0, "worker processes to wait for (0: single-process)")
	listen := flag.String("listen", "127.0.0.1:7171", "control listen address (with -workers > 0)")
	out := flag.String("out", "", "write results to this file (default: stdout)")
	supervise := flag.Int("supervise", 0, "restart budget for supervised self-healing runs (0: unsupervised)")
	ckptDir := flag.String("ckpt-dir", "", "durable checkpoint directory (required with -supervise)")
	ckptEvery := flag.Duration("ckpt-every", 200*time.Millisecond, "checkpoint interval (with -ckpt-dir)")
	hbInterval := flag.Duration("hb-interval", 0, "control-plane heartbeat interval (0: default 1s)")
	hbTimeout := flag.Duration("hb-timeout", 0, "declare a peer dead after this much control silence (0: default 4s)")
	rejoinWindow := flag.Duration("rejoin-window", 0, "how long a recovery waits for all workers to rejoin before degrading (0: default 3s)")
	flag.Parse()

	extra := []streamline.Option{streamline.WithWorkers(*workers)}
	if *workers > 0 {
		extra = append(extra, streamline.WithListenAddr(*listen))
	}
	if *supervise > 0 {
		extra = append(extra,
			streamline.WithSupervision(*supervise),
			streamline.WithHeartbeat(*hbInterval, *hbTimeout),
			streamline.WithRejoinWindow(*rejoinWindow))
		if *ckptDir == "" {
			log.Fatal("-supervise needs -ckpt-dir: recovery restores from the checkpoint backend")
		}
	}
	if *ckptDir != "" {
		backend, err := streamline.NewFileBackend(*ckptDir)
		if err != nil {
			log.Fatal(err)
		}
		extra = append(extra, streamline.WithCheckpointing(backend, *ckptEvery))
	}
	env, render, err := pipelines.Build(*pipeline, flag.Args(), extra...)
	if err != nil {
		log.Fatal(err)
	}
	err = env.Execute(context.Background())
	for _, st := range env.RestartStats() {
		fmt.Fprintf(os.Stderr, "restart %d: %d workers, checkpoint %d, downtime %v (cause: %s)\n",
			st.Attempt, st.Workers, st.Checkpoint, st.Downtime.Round(time.Millisecond), st.Cause)
	}
	if err != nil {
		log.Fatal(err)
	}
	text := render()
	if *out == "" {
		fmt.Print(text)
		return
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		log.Fatal(err)
	}
}
