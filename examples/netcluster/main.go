// Netcluster: the same AER nodes that run inside the deterministic
// simulator, executed over real loopback TCP sockets with the library's
// binary wire codecs — 32 OS-level endpoints, length-prefixed frames,
// lazily dialed full mesh — by asking RunAER for the TCP model.
// Demonstrates that the protocol implementation is transport-agnostic (no
// simulator artifact props it up): the result is the ordinary AERResult,
// message counts by kind included.
package main

import (
	"fmt"
	"log"
	"sort"

	"github.com/fastba/fastba"
)

func main() {
	const n = 32

	res, err := fastba.RunAER(fastba.NewConfig(n,
		fastba.WithModel(fastba.TCP),
		fastba.WithSeed(7),
		fastba.WithCorruptFrac(0.05),
		fastba.WithKnowFrac(0.92),
	))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("agreement over TCP: %v (%d/%d decided gstring %s)\n",
		res.Agreement, res.DecidedGString, res.Correct, res.GString)
	fmt.Printf("wall time %dms, %.0f bits/node mean, %d bits/node max, %d dials\n",
		res.Time, res.MeanBitsPerNode, res.MaxBitsPerNode, res.Net.Dials)

	var names []string
	for k := range res.MessagesByKind {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("messages sent by protocol message kind:")
	for _, k := range names {
		fmt.Printf("  %-8s %d\n", k, res.MessagesByKind[k])
	}
}
