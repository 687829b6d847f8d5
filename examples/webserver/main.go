// Webserver: a server is "essentially the consumer of a bounded buffer,
// where the producer may or may not be on the same machine" (§3.2). Bursty
// request traffic fills a request queue; the server drains it under
// feedback control while a background batch job (a miscellaneous CPU hog)
// competes for the machine. Importance weighting keeps the server
// responsive under overload without starving the batch job.
//
// Run with: go run ./examples/webserver
package main

import (
	"fmt"
	"time"

	realrate "repro"
)

const requestBytes = 512 // each queued request is 512 bytes of state

// qualityPrinter reports the controller's quality exceptions: the server
// squished below what its queue needs during a burst.
type qualityPrinter struct{ realrate.NopObserver }

func (qualityPrinter) OnQuality(ev realrate.QualityEvent) {
	fmt.Printf("%5.1fs  QUALITY EXCEPTION: %s squished %d→%d ppt (overloaded burst)\n",
		ev.Time.Seconds(), ev.Thread.Name(), ev.Desired, ev.Allocated)
}

func main() {
	sys := realrate.NewSystem(realrate.Config{})
	requests := sys.NewQueue("requests", 256*1024)

	// Traffic source: a NIC-like device with a small reservation. It
	// alternates calm (400 req/s) and burst (1600 req/s) phases every 3
	// seconds.
	phase := 0
	source := realrate.ProgramFunc(func(t *realrate.Thread, now time.Duration) realrate.Action {
		phase++
		if phase%2 == 1 {
			rate := 400
			if int(now/(3*time.Second))%2 == 1 {
				rate = 1600
			}
			interval := time.Second / time.Duration(rate)
			return realrate.Sleep(interval)
		}
		return realrate.Produce(requests, requestBytes)
	})
	if _, err := sys.Spawn("nic", source, realrate.Reserve(20, 5*time.Millisecond)); err != nil {
		panic(err)
	}

	// Server: 400k cycles per request (1 ms at 400 MHz). At 1600 req/s it
	// needs 640M cycles/s — more than the machine, so bursts briefly
	// queue up and drain in the calm phases.
	served := 0
	serving := true
	server := realrate.ProgramFunc(func(t *realrate.Thread, now time.Duration) realrate.Action {
		serving = !serving
		if serving {
			return realrate.Consume(requests, requestBytes)
		}
		served++
		return realrate.Compute(400_000)
	})
	srv, err := sys.Spawn("httpd", server,
		realrate.RealRate(0, realrate.ConsumerOf(requests)),
		realrate.Importance(4)) // the server matters more than batch work
	if err != nil {
		panic(err)
	}

	// Background batch job: takes whatever is left (miscellaneous is the
	// default class).
	batch, err := sys.Spawn("batch", realrate.HogProgram(400_000))
	if err != nil {
		panic(err)
	}

	sys.Observe(qualityPrinter{})

	fmt.Println("time    queue-fill  served  httpd(ppt)  batch(ppt)")
	lastServed := 0
	sys.Every(time.Second, func(now time.Duration) {
		fmt.Printf("%5.1fs  %.3f       %5d   %4d        %4d\n",
			now.Seconds(), requests.FillLevel(), served-lastServed,
			srv.Allocation(), batch.Allocation())
		lastServed = served
	})
	sys.Run(12 * time.Second)

	st := sys.Stats()
	fmt.Printf("\nserved %d requests; batch job still got %.1f%% of the CPU (no starvation)\n",
		served, 100*batch.CPUTime().Seconds()/st.Elapsed.Seconds())
}
