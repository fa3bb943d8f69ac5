package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"iothub/internal/fleet"
	"iothub/internal/fleetd"
)

// runServe is the coordinator process: it owns the sweep, the journal, and
// the merged aggregates; workers are stateless and disposable.
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("iotfleet serve", flag.ContinueOnError)
	specPath := fs.String("spec", "", "sweep spec file (JSON)")
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file (workers poll it)")
	journal := fs.String("journal", "", "checkpoint journal path (enables -resume after a coordinator crash)")
	resume := fs.Bool("resume", false, "replay the journal and continue from the first unfinished scenario")
	aggOut := fs.String("agg-out", "", "write the merged aggregates as canonical JSON to this file")
	progress := fs.Bool("progress", false, "print structured JSON progress lines to stderr")
	shardSize := fs.Int("shard-size", 0, "initial scenarios per shard (0 = default)")
	leaseTTL := fs.Duration("lease-ttl", 0, "shard lease deadline; a silent worker loses its shard after this (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("serve: -spec is required")
	}
	spec, err := fleet.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	cfg := fleetd.Config{
		Spec: spec, Journal: *journal, Resume: *resume,
		ShardSize: *shardSize, LeaseTTL: *leaseTTL, Warn: os.Stderr,
	}
	if *progress {
		cfg.Progress = os.Stderr
	}
	c, err := fleetd.New(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	srv, err := fleetd.ServeHTTP(*addr, c)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "serve: coordinating on %s\n", srv.Addr())
	if *addrFile != "" {
		// Write-then-rename so workers polling the file never read half an
		// address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			return err
		}
	}
	res, err := c.Wait()
	if err != nil {
		return err
	}
	if *aggOut != "" {
		if err := os.WriteFile(*aggOut, res.Agg.JSON(), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "serve: %d scenarios folded (%d resumed), fingerprint %s\n",
		res.Completed, res.Resumed, res.Agg.Fingerprint())
	for _, f := range res.Failed {
		fmt.Fprintf(out, "failed: scenario %d %s: %s\n", f.Index, f.Label, f.Err)
	}
	if res.Agg.Errors > 0 {
		return fmt.Errorf("%d of %d scenarios failed", res.Agg.Errors, res.Completed)
	}
	return nil
}

// runWork is one worker process: fetch the spec, lease shards, execute,
// submit, exit when the coordinator says the sweep is done.
func runWork(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("iotfleet work", flag.ContinueOnError)
	addr := fs.String("addr", "", "coordinator address (host:port)")
	addrFile := fs.String("addr-file", "", "poll this file for the coordinator address (written by serve -addr-file)")
	id := fs.String("id", "", "worker name in leases and logs (default: pid-derived)")
	parallelism := fs.Int("parallelism", 0, "scenarios in flight inside one shard (0 = 1)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-RPC timeout")
	wait := fs.Duration("wait", 10*time.Second, "how long to wait for -addr-file to appear")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" && *addrFile == "" {
		return fmt.Errorf("work: one of -addr or -addr-file is required")
	}
	if *id == "" {
		*id = fmt.Sprintf("w%d", os.Getpid())
	}
	target := *addr
	if target == "" {
		var err error
		if target, err = awaitAddrFile(*addrFile, *wait); err != nil {
			return err
		}
	}
	w, err := fleetd.NewWorker(fleetd.WorkerConfig{
		ID:          *id,
		Transport:   fleetd.HTTPTransport{Addr: target, Timeout: *timeout},
		Parallelism: *parallelism,
		Seed:        int64(os.Getpid()),
		Warn:        os.Stderr,
	})
	if err != nil {
		if errors.Is(err, fleetd.ErrCoordinatorGone) {
			// The sweep finished (and serve exited) before this worker got a
			// first word in — nothing to do is not a failure.
			fmt.Fprintf(out, "work[%s]: coordinator already gone; nothing to do\n", *id)
			return nil
		}
		return err
	}
	if err := w.Run(); err != nil {
		return err
	}
	fmt.Fprintf(out, "work[%s]: sweep done, %d shards completed\n", *id, w.Shards())
	return nil
}

// awaitAddrFile polls for the coordinator's address file — the rendezvous
// used by the smoke script, where workers start before the coordinator has
// bound its port.
func awaitAddrFile(path string, wait time.Duration) (string, error) {
	deadline := time.Now().Add(wait)
	for {
		blob, err := os.ReadFile(path)
		if err == nil {
			if addr := strings.TrimSpace(string(blob)); addr != "" {
				return addr, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("work: no coordinator address in %s after %v", filepath.Clean(path), wait)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
