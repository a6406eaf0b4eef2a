// ode-sh is the interactive O++ shell: it executes O++-subset programs
// (class declarations, pnew, forall queries, versions, triggers)
// against an Ode database file.
//
// Usage:
//
//	ode-sh -db inventory.odb schema.oql [script.oql ...]
//	ode-sh -db inventory.odb            # REPL on stdin
//	ode-sh -connect host:6339 [script.oql ...]   # remote: statements run on ode-server
//	ode-sh -connect host:6350,host:6351,host:6352   # shard-group operator console
//
// When reopening an existing database, pass the same schema scripts
// first: classes must be registered before the file is opened so the
// catalog can be verified. Class declarations found in any script are
// registered before Open; the remaining statements run afterwards.
//
// With -connect the shell speaks the wire protocol to ode-server
// daemons instead of opening a file. One address is a session on that
// server: statements execute in a pinned server-side interpreter, so
// declared classes and `begin` transactions persist across lines
// exactly as they do locally. Several addresses are a shard group
// behind the router, in shard order: an operator console with no
// interpreter. Both understand `shards;` (every node's LSN, epoch, shard
// coordinates and in-doubt transactions) and `resolve;` (settle in-doubt
// two-phase commits, see docs/SHARDING.md), which the router refuses
// unless the list is the whole group in shard order — a lone unsharded
// server is its own whole group.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ode"
	"ode/client"
	"ode/internal/oql"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// shell is one invocation's streams.
type shell struct {
	stdin          io.Reader
	stdout, stderr io.Writer
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ode-sh", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbPath := fs.String("db", "", "database file (required unless -connect)")
	connect := fs.String("connect", "", "HOST:PORT[,HOST:PORT...] of running ode-server daemons: one address is a remote session, several are the operator console of that shard group (shards; resolve;)")
	poolPages := fs.Int("pool", 1024, "buffer pool size in pages")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ode-sh -db FILE [script.oql ...]\n       ode-sh -connect HOST:PORT[,HOST:PORT...] [script.oql ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	sh := &shell{stdin, stdout, stderr}
	var err error
	switch {
	case *connect != "":
		err = sh.remote(strings.Split(*connect, ","), fs.Args())
	case *dbPath != "":
		err = sh.local(*dbPath, *poolPages, fs.Args())
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "ode-sh:", err)
		return 1
	}
	return 0
}

// local runs scripts (or the REPL) against a database file.
func (sh *shell) local(dbPath string, poolPages int, scripts []string) error {
	// Phase 1: parse all scripts, registering classes into the schema.
	schema := ode.NewSchema()
	var programs []*oql.Program
	for _, path := range scripts {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		prog, err := oql.SplitSchema(string(src), schema)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		programs = append(programs, prog)
	}

	db, err := ode.Open(dbPath, schema, &ode.Options{PoolPages: poolPages})
	if err != nil {
		return err
	}
	defer db.Close()

	sess := oql.NewSession(db, sh.stdout)
	for i, prog := range programs {
		if err := sess.Run(prog); err != nil {
			return fmt.Errorf("%s: %w", scripts[i], err)
		}
	}
	if len(programs) == 0 {
		sh.repl("ode-sh — O++ subset shell. End statements with ';'. Ctrl-D to exit.", func(src string) error {
			err := sess.Exec(src)
			for _, e := range db.Triggers().Errors() {
				fmt.Fprintln(sh.stderr, "trigger error:", e)
			}
			return err
		})
	}
	return sess.Close()
}

// remote runs scripts (or the REPL) against ode-server daemons through
// the router, which over one address is that server alone. `shards;`
// and `resolve;` are the router's. Everything else is O++ for the
// interpreter, which lives server-side in a pinned session (each
// statement batch is one round trip, the printed output comes back as
// text) — so only a single server has one.
func (sh *shell) remote(addrs, scripts []string) error {
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	r, err := client.DialSharded(addrs, ode.NewSchema(), nil)
	if err != nil {
		return err
	}
	defer r.Close()
	ctx := context.Background()
	var sess *client.Session
	banner := fmt.Sprintf("ode-sh — router over %d shards. Statements: shards; resolve;. Ctrl-D to exit.", len(addrs))
	if len(addrs) == 1 {
		if sess, err = r.Shard(0).Session(ctx); err != nil {
			return err
		}
		defer sess.Close()
		banner = fmt.Sprintf("ode-sh — connected to %s. End statements with ';'. Ctrl-D to exit.", addrs[0])
	}

	exec := func(src string) error {
		switch {
		case isStmt(src, "shards"):
			sts, err := r.Status(ctx)
			for i, st := range sts {
				sh.printShard(i, addrs[i], st)
			}
			return err
		case isStmt(src, "resolve"):
			n, err := r.ResolveInDoubt(ctx)
			fmt.Fprintf(sh.stdout, "resolved %d in-doubt transaction(s)\n", n)
			return err
		case sess == nil:
			return fmt.Errorf("a shard group understands 'shards;' and 'resolve;' only; connect to one shard to run O++ statements")
		}
		out, err := sess.Exec(ctx, src)
		fmt.Fprint(sh.stdout, out)
		return err
	}

	for _, path := range scripts {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := exec(string(src)); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if len(scripts) == 0 {
		sh.repl(banner, exec)
	}
	return nil
}

// repl is the interactive loop of every mode: it prints the banner,
// accumulates stdin lines until they form a complete statement batch,
// and hands each batch to exec, reporting its error without leaving the
// loop. Ctrl-D ends it.
func (sh *shell) repl(banner string, exec func(src string) error) {
	fmt.Fprintln(sh.stdout, banner)
	scanner := bufio.NewScanner(sh.stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "ode> "
	for {
		fmt.Fprint(sh.stdout, prompt)
		if !scanner.Scan() {
			break
		}
		buf.WriteString(scanner.Text())
		buf.WriteByte('\n')
		src := buf.String()
		if !complete(src) {
			prompt = "...> "
			continue
		}
		buf.Reset()
		prompt = "ode> "
		if err := exec(src); err != nil {
			fmt.Fprintln(sh.stderr, "error:", err)
		}
	}
}

// isStmt reports whether src is exactly the given bare statement,
// allowing the closing ';' and surrounding whitespace.
func isStmt(src, word string) bool {
	return strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(src), ";")) == word
}

// printShard renders the status of the i-th node -connect named; a nil
// status is a node that did not answer. A sharded node is labelled with
// the slot it reports, not its place in the list: they differ when the
// list is one shard of a larger group, or out of order.
func (sh *shell) printShard(i int, addr string, st *client.ShardStatus) {
	if st == nil {
		fmt.Fprintf(sh.stdout, "shard %d @ %s  UNREACHABLE\n", i, addr)
		return
	}
	role := "rw"
	if st.ReadOnly {
		role = "ro"
	}
	coords := "unsharded"
	if st.Count > 0 {
		i, coords = st.Slot, fmt.Sprintf("slot %d/%d", st.Slot, st.Count)
	}
	fmt.Fprintf(sh.stdout, "shard %d @ %s  %s  lsn=%d epoch=%d %s  prepared=%d\n",
		i, addr, coords, st.LSN, st.Epoch, role, len(st.Prepared))
	for _, p := range st.Prepared {
		rec := ""
		if p.Recovered {
			rec = " recovered"
		}
		fmt.Fprintf(sh.stdout, "  in-doubt %s  ops=%d age=%s%s\n", p.GID, p.Ops, p.Age.Round(time.Millisecond), rec)
	}
}

// complete reports whether the input forms a complete statement batch:
// balanced braces/parens outside literals, ending with ';' or '}'.
func complete(src string) bool {
	depth := 0
	inStr, inChar, inLine, inBlock := false, false, false, false
	var last byte
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inLine:
			if c == '\n' {
				inLine = false
			}
			continue
		case inBlock:
			if c == '*' && i+1 < len(src) && src[i+1] == '/' {
				inBlock = false
				i++
			}
			continue
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		case inChar:
			if c == '\\' {
				i++
			} else if c == '\'' {
				inChar = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '\'':
			inChar = true
		case '/':
			// A comment opener is not the statement's last character.
			if i+1 < len(src) && (src[i+1] == '/' || src[i+1] == '*') {
				inLine = src[i+1] == '/'
				inBlock = !inLine
				i++
				continue
			}
		case '{', '(':
			depth++
		case '}', ')':
			depth--
		}
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			last = c
		}
	}
	if depth > 0 || inStr || inChar || inBlock {
		return false
	}
	return last == ';' || last == '}'
}
