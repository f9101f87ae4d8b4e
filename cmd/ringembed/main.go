// Command ringembed embeds a fault-free ring in a De Bruijn network with
// failed processors or links, or batches embedding requests across every
// supported topology through the concurrent engine.
//
// Usage:
//
//	ringembed -d 3 -n 3 -faults 020,112            # node faults (Chapter 2)
//	ringembed -d 3 -n 3 -faults 020,112 -dist      # distributed run with round counts
//	ringembed -d 5 -n 2 -edgefaults 01-12,14-40    # link faults (Chapter 3)
//	ringembed -batch requests.jsonl -workers 8     # batch mode over the engine
//
// Batch input is JSON lines ("-" reads stdin), one request per line:
//
//	{"topology":"debruijn(3,3)","node_faults":["020","112"]}
//	{"topology":"hypercube(12)","node_faults":["000000000111"]}
//	{"topology":"butterfly(3,2)","edge_faults":[{"from":"(0,00)","to":"(1,00)"}]}
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"debruijnring"
)

func main() {
	d := flag.Int("d", 3, "arity")
	n := flag.Int("n", 3, "word length")
	faults := flag.String("faults", "", "comma-separated faulty processor labels")
	edgeFaults := flag.String("edgefaults", "", "comma-separated faulty links, from-to")
	dist := flag.Bool("dist", false, "run the distributed (network-level) algorithm")
	quiet := flag.Bool("quiet", false, "suppress the ring listing")
	batch := flag.String("batch", "", "batch mode: JSON-lines request file, or - for stdin")
	workers := flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	flag.Parse()

	if *batch != "" {
		if err := runBatch(*batch, *workers, *quiet); err != nil {
			fail(err)
		}
		return
	}

	g, err := debruijnring.New(*d, *n)
	if err != nil {
		fail(err)
	}

	if *edgeFaults != "" {
		var edges []debruijnring.Edge
		for _, tok := range strings.Split(*edgeFaults, ",") {
			parts := strings.SplitN(strings.TrimSpace(tok), "-", 2)
			if len(parts) != 2 {
				fail(fmt.Errorf("bad link %q (want from-to)", tok))
			}
			from, err := g.Node(parts[0])
			if err != nil {
				fail(err)
			}
			to, err := g.Node(parts[1])
			if err != nil {
				fail(err)
			}
			edges = append(edges, debruijnring.Edge{From: from, To: to})
		}
		ring, err := g.EmbedRingEdgeFaults(edges)
		if err != nil {
			fail(err)
		}
		fmt.Printf("B(%d,%d): Hamiltonian ring of length %d avoiding %d faulty links (tolerance %d)\n",
			*d, *n, ring.Len(), len(edges), debruijnring.MaxTolerableEdgeFaults(*d))
		printRing(g, ring, *quiet)
		return
	}

	var nodes []int
	if *faults != "" {
		for _, tok := range strings.Split(*faults, ",") {
			v, err := g.Node(strings.TrimSpace(tok))
			if err != nil {
				fail(err)
			}
			nodes = append(nodes, v)
		}
	}
	if *dist {
		ring, stats, err := g.EmbedRingDistributed(nodes)
		if err != nil {
			fail(err)
		}
		fmt.Printf("B(%d,%d): ring of length %d found distributively in %d rounds (%d broadcast) with %d messages\n",
			*d, *n, ring.Len(), stats.Rounds, stats.BroadcastRound, stats.Messages)
		printRing(g, ring, *quiet)
		return
	}
	ring, stats, err := g.EmbedRing(nodes)
	if err != nil {
		fail(err)
	}
	fmt.Printf("B(%d,%d): ring of length %d (|B*| = %d, bound dⁿ−nf = %d, eccentricity %d)\n",
		*d, *n, ring.Len(), stats.BStarSize, stats.LowerBound, stats.Eccentricity)
	printRing(g, ring, *quiet)
}

func printRing(g *debruijnring.Graph, ring *debruijnring.Ring, quiet bool) {
	if quiet {
		return
	}
	labels := make([]string, ring.Len())
	for i, v := range ring.Nodes {
		labels[i] = g.Label(v)
	}
	fmt.Println(strings.Join(labels, " "))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ringembed:", err)
	os.Exit(1)
}
