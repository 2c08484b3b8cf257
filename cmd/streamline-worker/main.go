// Command streamline-worker executes one worker's share of a distributed
// STREAMLINE job through streamline.RunWorker with the pipeline registry. It
// dials the coordinator (cmd/streamline-coord), receives the plan, rebuilds
// the named pipeline from the registry, verifies the plan fingerprint, and
// runs its assigned subtasks over loopback TCP.
//
//	streamline-worker -coord 127.0.0.1:7171
//
// The dial retries with capped exponential backoff for -dial-timeout, so
// workers may start before the coordinator is listening. Under a supervised
// coordinator (streamline-coord -supervise) the worker also redials after
// every epoch restart, rejoining the recovered job until it completes.
package main

import (
	"context"
	"flag"
	"log"
	"time"

	"repro/internal/pipelines"
	"repro/streamline"
)

func main() {
	coord := flag.String("coord", "127.0.0.1:7171", "coordinator control address")
	dialTimeout := flag.Duration("dial-timeout", 10*time.Second, "how long to retry each dial")
	flag.Parse()

	pipelines.RegisterAll()
	err := streamline.RunWorker(context.Background(), *coord, nil,
		streamline.WithWorkerDialPolicy(streamline.DialPolicy{MaxWait: *dialTimeout}))
	if err != nil {
		log.Fatal(err)
	}
}
