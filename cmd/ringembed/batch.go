package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"debruijnring/engine"
	"debruijnring/topology"
)

// batchRequest is one JSON-lines embedding request: a topology spec plus
// failed components named by processor label.
type batchRequest struct {
	Topology   string   `json:"topology"`
	NodeFaults []string `json:"node_faults,omitempty"`
	EdgeFaults []struct {
		From string `json:"from"`
		To   string `json:"to"`
	} `json:"edge_faults,omitempty"`
}

// runBatch reads JSON-lines requests, serves them concurrently through
// the memoizing engine, and prints one summary line per request (in
// input order) plus the cache counters.
func runBatch(path string, workers int, quiet bool) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	var reqs []engine.Request
	var nets []topology.RingEmbedder
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var br batchRequest
		if err := json.Unmarshal([]byte(text), &br); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		net, err := topology.FromSpec(br.Topology)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		edges := make([][2]string, len(br.EdgeFaults))
		for i, e := range br.EdgeFaults {
			edges[i] = [2]string{e.From, e.To}
		}
		fs, err := topology.ParseFaults(net, br.NodeFaults, edges)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		reqs = append(reqs, engine.Request{Network: net, Faults: fs})
		nets = append(nets, net)
	}
	if err := scanner.Err(); err != nil {
		return err
	}
	if len(reqs) == 0 {
		return fmt.Errorf("batch input holds no requests")
	}

	eng := engine.New(engine.Options{Workers: workers})
	results := eng.EmbedBatch(context.Background(), reqs)
	for i, res := range results {
		if res.Err != nil {
			fmt.Printf("[%d] %s: ERROR: %v\n", i, nets[i].Name(), res.Err)
			continue
		}
		hit := " "
		if res.Stats.CacheHit {
			hit = "*"
		}
		fmt.Printf("[%d]%s %s: ring %d (bound %d, survivors %d, rounds %d, dilation %d) in %s\n",
			i, hit, res.Stats.Topology, res.Stats.RingLength, res.Stats.LowerBound,
			res.Stats.Survivors, res.Stats.Rounds, res.Stats.Dilation, res.Stats.Elapsed)
		if !quiet {
			labels := make([]string, len(res.Ring))
			for j, v := range res.Ring {
				labels[j] = nets[i].Label(v)
			}
			fmt.Println("   ", strings.Join(labels, " "))
		}
	}
	cs := eng.CacheStats()
	fmt.Printf("%d requests: %d computed, %d served from cache (* = cache hit)\n",
		len(results), cs.Misses, cs.Hits)
	return nil
}
