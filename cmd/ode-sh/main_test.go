package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ode"
	"ode/client"
	"ode/internal/server"
)

// TestComplete pins when the REPL stops accumulating lines and runs
// what it has: braces and parens balanced outside literals and
// comments, and the last significant character a ';' or a '}'.
func TestComplete(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{"", false},
		{"\n", false},
		{"x := 1", false},
		{"x := 1;", true},
		{"x := 1;  \n", true},
		{"class c { public: int n; }", true}, // trailing '}' ends a declaration
		{"class c { public: int n;", false},
		{"forall x in c {", false},
		{"forall x in c { if (x.n > 0) { print(x.n); }", false}, // nested, one still open
		{"forall x in c { if (x.n > 0) { print(x.n); } }", true},
		{"print(f(1, 2);", false}, // unbalanced paren
		{`print("a;");`, true},
		{`print("}");`, true}, // brace inside a string does not count
		{`print("unterminated;`, false},
		{`print("esc \" ;`, false}, // escaped quote keeps the string open
		{`c := ';'`, false},        // ';' inside a char literal
		{`c := '}';`, true},
		{"x := 1; // trailing {", true},
		{"x := 1 // ;", false}, // ';' only inside a line comment
		{"x := 1; /* {{{ */", true},
		{"x := 1; /* open", false}, // unterminated block comment
		{"/* ; */", false},
		{"}", true}, // the shell does not parse; the interpreter will reject it
	} {
		if got := complete(tc.src); got != tc.want {
			t.Errorf("complete(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestIsStmt(t *testing.T) {
	for _, tc := range []struct {
		src, word string
		want      bool
	}{
		{"shards;", "shards", true},
		{"  shards ;\n", "shards", true},
		{"shards", "shards", true},
		{"resolve;", "resolve", true},
		{"resolve;", "shards", false},
		{"shards; resolve;", "shards", false},
		{"print(shards);", "shards", false},
		{"", "shards", false},
	} {
		if got := isStmt(tc.src, tc.word); got != tc.want {
			t.Errorf("isStmt(%q, %q) = %v, want %v", tc.src, tc.word, got, tc.want)
		}
	}
}

// serve boots one loopback ode-server over a fresh, schemaless database.
func serve(t *testing.T, opts *ode.Options) string {
	t.Helper()
	db, err := ode.Open(filepath.Join(t.TempDir(), "sh.odb"), ode.NewSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(nil)
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return addr.String()
}

// sh runs the command and returns its exit code and streams.
func sh(stdin string, args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

const smokeScript = `class smokeitem { public: string name; int qty; };
create cluster smokeitem;
s := pnew smokeitem{name: "smoke", qty: 3};
commit;
forall x in smokeitem suchthat (x.qty > 0) { print(x.name, x.qty); }
`

func writeScript(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "script.oql")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsage(t *testing.T) {
	const help = `usage: ode-sh -db FILE [script.oql ...]
       ode-sh -connect HOST:PORT[,HOST:PORT...] [script.oql ...]
  -connect string
    	HOST:PORT[,HOST:PORT...] of running ode-server daemons: one address is a remote session, several are the operator console of that shard group (shards; resolve;)
  -db string
    	database file (required unless -connect)
  -pool int
    	buffer pool size in pages (default 1024)
`
	if code, _, stderr := sh("", "-h"); code != 0 || stderr != help {
		t.Errorf("-h: exit %d, stderr:\n%s", code, stderr)
	}
	for _, args := range [][]string{
		nil,                        // neither -db nor -connect
		{"-connect-shards", "a,b"}, // removed: -connect takes the list
	} {
		if code, _, stderr := sh("", args...); code != 2 || !strings.Contains(stderr, "usage: ode-sh") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and the usage", args, code, stderr)
		}
	}
	if code, _, stderr := sh("", "-connect", "127.0.0.1:1"); code != 1 || !strings.HasPrefix(stderr, "ode-sh: ") {
		t.Errorf("dead address: exit %d, stderr %q", code, stderr)
	}
}

func TestLocalScript(t *testing.T) {
	code, stdout, stderr := sh("", "-db", filepath.Join(t.TempDir(), "local.odb"), writeScript(t, smokeScript))
	if code != 0 || !strings.Contains(stdout, "smoke 3") {
		t.Errorf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestConnectOne drives a script, then the console statements, through
// -connect against one server: it is a session and a one-row group.
func TestConnectOne(t *testing.T) {
	addr := serve(t, nil)
	code, stdout, stderr := sh("", "-connect", addr, writeScript(t, smokeScript))
	if code != 0 || !strings.Contains(stdout, "smoke 3") {
		t.Fatalf("script: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	code, stdout, stderr = sh("shards;\nresolve;\nforall x in smokeitem {\n  print(x.qty + 1);\n}\nprint(nosuch);\n", "-connect", addr)
	if code != 0 {
		t.Fatalf("repl: exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"connected to " + addr, "shard 0 @ " + addr + "  unsharded  lsn=", " rw  prepared=0",
		"resolved 0 in-doubt transaction(s)", "...> ", "4\n"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("repl stdout lacks %q:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stderr, "error: ") { // the undefined name, reported without leaving the loop
		t.Errorf("repl stderr %q", stderr)
	}
	// A failing script is fatal and names the file.
	bad := writeScript(t, "print(nosuch);\n")
	if code, _, stderr := sh("", "-connect", addr, bad); code != 1 || !strings.Contains(stderr, bad) {
		t.Errorf("bad script: exit %d, stderr %q", code, stderr)
	}
}

// TestConnectGroup drives shards; and resolve; through -connect against
// three shard servers, from stdin and from a script file.
func TestConnectGroup(t *testing.T) {
	var addrs []string
	for slot := 0; slot < 3; slot++ {
		addrs = append(addrs, serve(t, &ode.Options{ShardCount: 3, ShardSlot: slot}))
	}
	list := strings.Join(addrs, ", ") // spaces around an address are trimmed
	code, stdout, stderr := sh("shards;\nresolve;\nprint(1);\n", "-connect", list)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"router over 3 shards", "shard 0 @ " + addrs[0] + "  slot 0/3", "shard 2 @ " + addrs[2] + "  slot 2/3",
		"resolved 0 in-doubt transaction(s)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stderr, "connect to one shard to run O++ statements") {
		t.Errorf("an O++ statement on a group: stderr %q", stderr)
	}
	code, stdout, stderr = sh("", "-connect", list, writeScript(t, "shards;\n"))
	if code != 0 || strings.Count(stdout, " rw  prepared=0") != 3 {
		t.Errorf("script: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestResolveNeedsWholeGroup: a transaction prepared on both shards of a
// 2-group and committed on its coordinator, shard 0, is in doubt on
// shard 1. A console that does not span the group in slot order — shard
// 1 alone, or the two reversed — would read the verdict off the
// participant ("prepared") and abort a committed transaction there, so
// resolve; must refuse and leave the vote standing; the whole group in
// order then delivers the commit.
func TestResolveNeedsWholeGroup(t *testing.T) {
	const gid = "s0-whole-1"
	ctx := context.Background()
	addrs := []string{serve(t, &ode.Options{ShardCount: 2, ShardSlot: 0}), serve(t, &ode.Options{ShardCount: 2, ShardSlot: 1})}
	var clients []*client.Client
	for _, a := range addrs {
		c, err := client.Dial(a, ode.NewSchema(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		tx, err := c.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Prepare(gid); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	if _, _, err := clients[0].CommitPrepared(ctx, gid); err != nil {
		t.Fatal(err)
	}
	participant := func() string {
		st, err := clients[1].TxStatus(ctx, gid)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	for _, list := range []string{addrs[1], addrs[1] + "," + addrs[0]} {
		code, stdout, stderr := sh("shards;\nresolve;\n", "-connect", list)
		if code != 0 || !strings.Contains(stdout, "shard 1 @ "+addrs[1]+"  slot 1/2") || !strings.Contains(stdout, "in-doubt "+gid) {
			t.Errorf("-connect %s: exit %d, stdout:\n%s", list, code, stdout)
		}
		if !strings.Contains(stdout, "resolved 0 in-doubt") || !strings.Contains(stderr, "does not span the whole shard group") {
			t.Errorf("-connect %s: resolve; was not refused: stdout %q stderr %q", list, stdout, stderr)
		}
		if st := participant(); st != ode.TxStatusPrepared {
			t.Fatalf("-connect %s: shard 1 is %q after a refused resolve;, want still prepared", list, st)
		}
	}

	_, stdout, stderr := sh("resolve;\n", "-connect", strings.Join(addrs, ","))
	if !strings.Contains(stdout, "resolved 1 in-doubt") || participant() != ode.TxStatusCommitted {
		t.Errorf("whole group: stdout %q stderr %q, shard 1 is %q, want committed", stdout, stderr, participant())
	}
}
