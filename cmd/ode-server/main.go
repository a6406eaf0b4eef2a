// ode-server is the network daemon: it opens an Ode database file and
// serves it over TCP to remote clients (the ode/client package, ode-sh
// -connect, ode-bench -connect) using the internal/wire protocol.
//
// Usage:
//
//	ode-server -db inventory.odb -addr :6339 schema.oql
//	ode-server -db bench.odb -bench-schema -metrics :6340
//
// The schema rule is the same as for embedded openers of a shared
// file: clients must register the identical class list. A schema is
// supplied either as .oql scripts (class declarations, as ode-sh
// accepts), or with -bench-schema (the benchmark catalog, for remote
// ode-bench and CI smoke), or left empty for pure remote-O++ use —
// remote shells can declare classes over the wire.
//
// -metrics serves the engine+server metric registry on HTTP as both
// expvar (/debug/vars) and a plain JSON snapshot (/metrics); the same
// snapshot is available in-band over the wire protocol. docs/SERVER.md
// documents the deployment surface, docs/OBSERVABILITY.md the metric
// names.
//
// -replica-of HOST:PORT starts the node as a read replica: it
// subscribes to the primary's WAL stream, applies committed batches,
// and serves reads while rejecting writes with a typed read-only
// error. If the primary cannot serve the replica's position, the
// daemon exits unless -resync (or -auto-failover) permits wiping the
// local copy and bootstrapping from a full snapshot. SIGUSR1 (or the
// wire promote command) promotes the replica: it detaches, durably
// bumps the fencing epoch, and accepts writes. Every node also accepts
// subscribers of its own, so replicas can cascade and a promoted node
// keeps its followers.
//
// -auto-failover (with -peers HOST:PORT,...) runs the node
// self-managing: followers detect a dead primary within
// -failover-window and deterministically elect the freshest reachable
// node, which promotes itself; a deposed primary detects the newer
// epoch, demotes itself, and rejoins the group as a replica (wiping
// and resyncing if its history forked); fatal stream errors self-heal
// by resubscribing or resyncing with backoff instead of requiring an
// operator. docs/REPLICATION.md is the operations guide.
//
// Exit codes: 0 clean drain, 1 fatal startup/serve error, 2 usage,
// 3 fatal replication error (e.g. a resync demand without permission
// to wipe).
package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ode"
	"ode/internal/bench"
	"ode/internal/node"
	"ode/internal/oql"
	"ode/internal/repl"
	"ode/internal/server"
)

// Exit codes (documented above; CI scripts branch on them).
const (
	exitClean = 0
	exitFatal = 1
	exitUsage = 2
	exitRepl  = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// parseFlags turns the command line into the node's configuration. A
// nil config means exit now, with the returned code.
func parseFlags(args []string, stderr io.Writer) (cfg *node.Config, metricsAddr string, code int) {
	fs := flag.NewFlagSet("ode-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:6339", "listen address for the wire protocol")
		advertise   = fs.String("advertise", "", "address peers reach this node at (default: -addr); election rank identity")
		dbPath      = fs.String("db", "", "database file (required)")
		poolPages   = fs.Int("pool", 4096, "buffer pool size in pages")
		cacheSize   = fs.Int("cache", 0, "decoded-object cache entries (0: engine default)")
		noSync      = fs.Bool("nosync", false, "skip fsync on commit (crash-unsafe; benchmarks only)")
		maxTx       = fs.Int("max-tx", 0, "admission control: concurrent transaction slots (0: unlimited)")
		maxQueued   = fs.Int("max-queued", 0, "admission control: queued transactions beyond the slots")
		walSoft     = fs.Int64("wal-soft", 0, "WAL soft limit in bytes (0: engine default)")
		walHard     = fs.Int64("wal-hard", 0, "WAL hard limit in bytes (0: engine default)")
		maxConns    = fs.Int("max-conns", 256, "session table bound; excess connections are shed")
		maxDeadline = fs.Duration("max-deadline", 0, "clamp client transaction deadlines (0: unclamped)")
		drain       = fs.Duration("drain", 5*time.Second, "graceful-shutdown drain window")
		metrics     = fs.String("metrics", "", "serve /metrics (JSON) and /debug/vars (expvar) on this address")
		benchSchema = fs.Bool("bench-schema", false, "register the benchmark catalog (for remote ode-bench)")
		replicaOf   = fs.String("replica-of", "", "follow the primary at HOST:PORT as a read replica")
		resync      = fs.Bool("resync", false, "with -replica-of: permit wiping the local copy for a full snapshot resync")
		auto        = fs.Bool("auto-failover", false, "with -peers: detect primary failure, elect, promote, and self-heal automatically (implies -resync)")
		peers       = fs.String("peers", "", "comma-separated HOST:PORT list of the other nodes in the group")
		window      = fs.Duration("failover-window", 3*time.Second, "how long the primary must be unreachable before failing over")
		ackQuorum   = fs.Int("commit-ack-quorum", 0, "replicas that must ack each commit before its reply (0: asynchronous)")
		ackTimeout  = fs.Duration("commit-ack-timeout", 2*time.Second, "bound on the commit ack wait")
		shardSlot   = fs.Int("shard-slot", 0, "with -shard-count: this node's shard index (OIDs ≡ slot mod count route here)")
		shardCount  = fs.Int("shard-count", 0, "shards in the group; enables striped OID allocation and 2PC participation (0: unsharded)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ode-server -db FILE [-addr HOST:PORT] [schema.oql ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, "", exitClean
		}
		return nil, "", exitUsage
	}
	usage := ""
	switch {
	case *dbPath == "":
		fs.Usage()
		return nil, "", exitUsage
	case *auto && *peers == "":
		usage = "-auto-failover requires -peers"
	case *shardCount > 0 && (*shardSlot < 0 || *shardSlot >= *shardCount):
		usage = fmt.Sprintf("-shard-slot %d out of range for -shard-count %d", *shardSlot, *shardCount)
	case *shardCount == 0 && *shardSlot != 0:
		usage = "-shard-slot requires -shard-count"
	}
	if usage != "" {
		fmt.Fprintln(stderr, "ode-server:", usage)
		return nil, "", exitUsage
	}
	if *noSync {
		// Without fsync, commits are acked — and their LSNs advertised
		// to replication subscribers — before anything is durable. A
		// crash then leaves this node behind positions it already
		// shipped, silently diverging the group; see docs/REPLICATION.md
		// "Durability and SetSync(false)".
		fmt.Fprintln(stderr, "ode-server: WARNING: -nosync acks commits before durability; a crash can lose acked transactions")
		if *replicaOf != "" || *auto {
			fmt.Fprintln(stderr, "ode-server: WARNING: -nosync on a replica can silently diverge the replication group after a crash (acked LSNs may be lost); do not promote a node run this way")
		}
	}

	// Assemble the schema: benchmark catalog, .oql class declarations,
	// or empty (remote shells declare classes over the wire).
	schema := ode.NewSchema()
	if *benchSchema {
		schema, _ = bench.Schema()
	}
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err == nil {
			_, err = oql.SplitSchema(string(src), schema)
		}
		if err != nil {
			fmt.Fprintf(stderr, "ode-server: %s: %v\n", path, err)
			return nil, "", exitFatal
		}
	}

	if *advertise == "" {
		*advertise = *addr
	}
	logf := func(format string, args ...any) { fmt.Fprintf(stderr, "ode-server: "+format+"\n", args...) }
	cfg = &node.Config{
		Path:   *dbPath,
		Schema: schema,
		Addr:   *addr,
		Follow: *replicaOf,
		Resync: *resync,
		DB: ode.Options{
			PoolPages:       *poolPages,
			ObjectCacheSize: *cacheSize,
			NoSync:          *noSync,
			MaxConcurrentTx: *maxTx,
			MaxQueuedTx:     *maxQueued,
			WALSoftLimit:    *walSoft,
			WALHardLimit:    *walHard,
			ShardSlot:       *shardSlot,
			ShardCount:      *shardCount,
		},
		Server: server.Options{
			MaxConns:        *maxConns,
			MaxDeadline:     *maxDeadline,
			DrainTimeout:    *drain,
			CommitAckQuorum: *ackQuorum,
			AckTimeout:      *ackTimeout,
			Advertise:       *advertise,
			Logf:            func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) },
		},
		Source:  repl.SourceOptions{Logf: logf},
		Replica: repl.ReplicaOptions{HeartbeatTimeout: 4 * *window},
		// The window is set with or without -auto-failover: the node's
		// restart backoff is a fraction of it. Peers are what switch
		// self-management on.
		Monitor: repl.MonitorOptions{Self: *advertise, Window: *window, Logf: logf},
	}
	if *auto {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Monitor.Peers = append(cfg.Monitor.Peers, p)
			}
		}
	}
	return cfg, *metrics, exitClean
}

// exitCode classifies what stopped the node: a history the local copy
// cannot join, with no permission to wipe it, is the operator's call
// (3); anything else is a plain failure (1).
func exitCode(err error) int {
	if errors.Is(err, repl.ErrResyncRequired) || errors.Is(err, ode.ErrStaleEpoch) {
		return exitRepl
	}
	return exitFatal
}

// serveMetrics publishes the current incarnation's metric registry on
// HTTP (the database is reopened across resync restarts; a node that is
// down publishes nothing).
func serveMetrics(addr string, n *node.Node, stdout, stderr io.Writer) {
	snapshot := func() (snap any) {
		n.WithDB(func(db *ode.DB) error {
			snap = db.MetricsRegistry().Snapshot()
			return nil
		})
		return snap
	}
	expvar.Publish("ode", expvar.Func(snapshot))
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if snap := snapshot(); snap != nil {
			json.NewEncoder(w).Encode(snap)
		}
	})
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(stderr, "ode-server: metrics endpoint:", err)
		}
	}()
	fmt.Fprintf(stdout, "metrics on http://%s/metrics (JSON) and /debug/vars (expvar)\n", addr)
}

// run is the daemon: flags, signals, the metrics endpoint and exit
// codes around one node.Node, which owns the lifecycle.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, metricsAddr, code := parseFlags(args, stderr)
	if cfg == nil {
		return code
	}
	failed := make(chan error, 1)
	cfg.OnTransition = func(t node.Transition) {
		fmt.Fprintf(stderr, "ode-server: %v\n", t)
		if t.Kind == node.Failed {
			failed <- t.Err // once per Start: the run loop ends with it
		}
	}
	n := node.New(*cfg)
	if metricsAddr != "" {
		serveMetrics(metricsAddr, n, stdout, stderr)
	}
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, os.Interrupt, syscall.SIGTERM)
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)

	if err := n.Start(); err != nil {
		fmt.Fprintln(stderr, "ode-server:", err)
		if exitCode(err) == exitRepl && !cfg.Resync {
			fmt.Fprintln(stderr, "ode-server: restart with -resync to wipe the local copy and bootstrap from a snapshot")
		}
		return exitCode(err)
	}
	fmt.Fprintf(stdout, "ode-server: serving %s on %s (max-conns %d, drain %v)\n",
		cfg.Path, n.Addr(), cfg.Server.MaxConns, cfg.Server.DrainTimeout)
	for {
		select {
		case <-usr1:
			if err := n.Promote(); err != nil {
				fmt.Fprintln(stderr, "ode-server:", err)
			}
		case s := <-shutdown:
			fmt.Fprintf(stderr, "ode-server: %v: draining...\n", s)
			if err := n.Close(); err != nil {
				fmt.Fprintln(stderr, "ode-server: close:", err)
				return exitFatal
			}
			fmt.Fprintln(stdout, "ode-server: shut down cleanly")
			return exitClean
		case err := <-failed:
			return exitCode(err)
		}
	}
}
