// Command lrmbench is the load generator for lrmserve: a mixed
// compress/decompress request stream from -serve-clients concurrent
// clients for -serve-duration, reported as JSON with status counts and
// latency percentiles. It is the serving smoke gate: the run fails (exit 1)
// on any 4xx or 5xx response, any transport error, or a p99 above
// -serve-p99. With no -serve-url it stands up an in-process loopback
// server, so the smoke test needs no separate process.
//
// Usage:
//
//	lrmbench [-serve-url URL] [-serve-clients N] [-serve-duration 5s]
//	         [-serve-p99 LIMIT]
//
// The generator sends only well-formed requests, so against a server with
// quotas off (the default) any 4xx is a server bug. Keep -serve-clients
// within the server's admission capacity (4×GOMAXPROCS by default), or the
// server answers 429 by design. The codec and pipeline benchmarks are
// lrm-bench/3: bash lrmbench3/run.sh.
package main

import (
	"flag"
	"os"
	"time"
)

func main() {
	url := flag.String("serve-url", "", "lrmserve base URL (empty = in-process loopback server)")
	clients := flag.Int("serve-clients", 4, "concurrent clients")
	duration := flag.Duration("serve-duration", 5*time.Second, "wall time of the load")
	p99 := flag.Duration("serve-p99", 0, "fail when request p99 exceeds this (0 = no latency gate)")
	flag.Parse()
	os.Exit(serveLoadMain(*url, *clients, *duration, *p99))
}
