package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ode"
	"ode/internal/repl"
	"ode/internal/server"
)

// Every flag lands in the node.Config field it names; nothing else is
// set.
func TestFlagsToConfig(t *testing.T) {
	schemaFile := filepath.Join(t.TempDir(), "schema.oql")
	if err := os.WriteFile(schemaFile, []byte("class smokeitem { public: string name; int qty; };\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cfg, metrics, code := parseFlags([]string{
		"-db", "x.odb", "-addr", "127.0.0.1:7001", "-advertise", "db1:7001",
		"-pool", "64", "-cache", "128", "-max-tx", "4", "-max-queued", "2",
		"-wal-soft", "1000", "-wal-hard", "2000", "-max-conns", "9",
		"-max-deadline", "3s", "-drain", "1s", "-metrics", "127.0.0.1:7002",
		"-auto-failover", "-peers", "db2:7001, db3:7001,", "-failover-window", "6s",
		"-commit-ack-quorum", "1", "-commit-ack-timeout", "4s",
		"-shard-slot", "1", "-shard-count", "3", schemaFile,
	}, &stderr)
	if cfg == nil {
		t.Fatalf("parseFlags exited %d: %s", code, stderr.String())
	}
	if metrics != "127.0.0.1:7002" {
		t.Errorf("metrics address = %q", metrics)
	}
	if _, ok := cfg.Schema.ClassNamed("smokeitem"); !ok {
		t.Error("schema file's class not registered")
	}
	if cfg.Path != "x.odb" || cfg.Addr != "127.0.0.1:7001" || cfg.Follow != "" || cfg.Resync {
		t.Errorf("deployment fields: %+v", cfg)
	}
	wantDB := ode.Options{
		PoolPages: 64, ObjectCacheSize: 128, MaxConcurrentTx: 4, MaxQueuedTx: 2,
		WALSoftLimit: 1000, WALHardLimit: 2000, ShardSlot: 1, ShardCount: 3,
	}
	if !reflect.DeepEqual(cfg.DB, wantDB) {
		t.Errorf("DB options = %+v, want %+v", cfg.DB, wantDB)
	}
	srv := cfg.Server
	if srv.Logf == nil {
		t.Error("server diagnostics not wired to stderr")
	}
	srv.Logf = nil
	wantSrv := server.Options{
		MaxConns: 9, MaxDeadline: 3 * time.Second, DrainTimeout: time.Second,
		CommitAckQuorum: 1, AckTimeout: 4 * time.Second, Advertise: "db1:7001",
	}
	if !reflect.DeepEqual(srv, wantSrv) {
		t.Errorf("server options = %+v, want %+v", srv, wantSrv)
	}
	if want := (repl.ReplicaOptions{HeartbeatTimeout: 24 * time.Second}); cfg.Replica != want {
		t.Errorf("replica options = %+v, want %+v", cfg.Replica, want)
	}
	mon := cfg.Monitor
	if mon.Self != "db1:7001" || mon.Window != 6*time.Second || !reflect.DeepEqual(mon.Peers, []string{"db2:7001", "db3:7001"}) ||
		mon.Probe != 0 || mon.DialTimeout != 0 {
		t.Errorf("monitor options = %+v", mon)
	}

	// A manual replica: no peers without -auto-failover (that is what
	// keeps it from self-managing), advertise defaults to the address.
	cfg, _, _ = parseFlags([]string{"-db", "r.odb", "-replica-of", "db1:7001", "-resync", "-peers", "ignored:1", "-bench-schema", "-nosync"}, &stderr)
	if cfg == nil {
		t.Fatal(stderr.String())
	}
	if cfg.Follow != "db1:7001" || !cfg.Resync || len(cfg.Monitor.Peers) != 0 || cfg.Monitor.Self != "127.0.0.1:6339" || !cfg.DB.NoSync {
		t.Errorf("manual replica config: %+v", cfg)
	}
	if cfg.Monitor.Window != 3*time.Second {
		t.Errorf("window = %v: the restart backoff derives from it even without -auto-failover", cfg.Monitor.Window)
	}
	if _, ok := cfg.Schema.ClassNamed("stockitem"); !ok {
		t.Error("-bench-schema did not register the benchmark catalog")
	}
	if !strings.Contains(stderr.String(), "WARNING: -nosync on a replica") {
		t.Error("no -nosync replica warning")
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-addr", ":1"},
		{"-db", "x.odb", "-auto-failover"},
		{"-db", "x.odb", "-shard-count", "3", "-shard-slot", "3"},
		{"-db", "x.odb", "-shard-count", "3", "-shard-slot", "-1"},
		{"-db", "x.odb", "-shard-slot", "1"},
		{"-db", "x.odb", "-no-such-flag"},
		{"-db", "x.odb", "-pool", "many"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != exitUsage {
			t.Errorf("%q exited %d, want %d", args, code, exitUsage)
		}
		if stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("%q: stderr %q stdout %q, want a diagnostic on stderr only", args, stderr.String(), stdout.String())
		}
	}
	// A schema file that cannot be read is a startup failure, not usage.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-db", "x.odb", "/no/such/schema.oql"}, &stdout, &stderr); code != exitFatal {
		t.Errorf("missing schema file exited %d, want %d", code, exitFatal)
	}
}

// Exit code 3 is reserved for a history the local copy cannot join.
func TestExitCodes(t *testing.T) {
	for err, want := range map[error]int{
		fmt.Errorf("follow p: %w", repl.ErrResyncRequired): exitRepl,
		fmt.Errorf("follow p: %w", ode.ErrStaleEpoch):      exitRepl,
		errors.New("listen: address in use"):               exitFatal,
	} {
		if got := exitCode(err); got != want {
			t.Errorf("exitCode(%v) = %d, want %d", err, got, want)
		}
	}
}

// syncBuffer lets the test read what the daemon goroutine prints.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// The daemon end to end: serve, take SIGTERM, drain, exit 0.
func TestRunServesAndDrains(t *testing.T) {
	var stdout, stderr syncBuffer
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{"-db", filepath.Join(t.TempDir(), "d.odb"), "-addr", "127.0.0.1:0", "-bench-schema"}, &stdout, &stderr)
	}()
	// The serving line is printed after the signal handlers are in
	// place, so the SIGTERM below cannot reach the default handler.
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(stdout.String(), "ode-server: serving "); time.Sleep(5 * time.Millisecond) {
		select {
		case code := <-exited:
			t.Fatalf("daemon exited %d before serving: %s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never served: %s", stderr.String())
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != exitClean {
			t.Errorf("SIGTERM exited %d, want %d: %s", code, exitClean, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain on SIGTERM")
	}
	if !strings.Contains(stdout.String(), "ode-server: shut down cleanly") {
		t.Errorf("no clean-shutdown line: %q", stdout.String())
	}
}

// The command line is frozen: -h prints exactly this and exits 0.
func TestHelpOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != exitClean {
		t.Errorf("-h exited %d", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("-h wrote to stdout: %q", stdout.String())
	}
	if got := stderr.String(); got != helpGolden {
		t.Errorf("-h output changed:\n%s", got)
	}
}

const helpGolden = `usage: ode-server -db FILE [-addr HOST:PORT] [schema.oql ...]
  -addr string
    	listen address for the wire protocol (default "127.0.0.1:6339")
  -advertise string
    	address peers reach this node at (default: -addr); election rank identity
  -auto-failover
    	with -peers: detect primary failure, elect, promote, and self-heal automatically (implies -resync)
  -bench-schema
    	register the benchmark catalog (for remote ode-bench)
  -cache int
    	decoded-object cache entries (0: engine default)
  -commit-ack-quorum int
    	replicas that must ack each commit before its reply (0: asynchronous)
  -commit-ack-timeout duration
    	bound on the commit ack wait (default 2s)
  -db string
    	database file (required)
  -drain duration
    	graceful-shutdown drain window (default 5s)
  -failover-window duration
    	how long the primary must be unreachable before failing over (default 3s)
  -max-conns int
    	session table bound; excess connections are shed (default 256)
  -max-deadline duration
    	clamp client transaction deadlines (0: unclamped)
  -max-queued int
    	admission control: queued transactions beyond the slots
  -max-tx int
    	admission control: concurrent transaction slots (0: unlimited)
  -metrics string
    	serve /metrics (JSON) and /debug/vars (expvar) on this address
  -nosync
    	skip fsync on commit (crash-unsafe; benchmarks only)
  -peers string
    	comma-separated HOST:PORT list of the other nodes in the group
  -pool int
    	buffer pool size in pages (default 4096)
  -replica-of string
    	follow the primary at HOST:PORT as a read replica
  -resync
    	with -replica-of: permit wiping the local copy for a full snapshot resync
  -shard-count int
    	shards in the group; enables striped OID allocation and 2PC participation (0: unsharded)
  -shard-slot int
    	with -shard-count: this node's shard index (OIDs ≡ slot mod count route here)
  -wal-hard int
    	WAL hard limit in bytes (0: engine default)
  -wal-soft int
    	WAL soft limit in bytes (0: engine default)
`
