// ode-sh is the interactive O++ shell: it executes O++-subset programs
// (class declarations, pnew, forall queries, versions, triggers)
// against an Ode database file.
//
// Usage:
//
//	ode-sh -db inventory.odb schema.oql [script.oql ...]
//	ode-sh -db inventory.odb            # REPL on stdin
//	ode-sh -connect host:6339           # remote: statements run on ode-server
//
// When reopening an existing database, pass the same schema scripts
// first: classes must be registered before the file is opened so the
// catalog can be verified. Class declarations found in any script are
// registered before Open; the remaining statements run afterwards.
//
// With -connect the shell speaks the wire protocol to an ode-server
// daemon instead of opening a file: statements execute in a pinned
// server-side session, so declared classes and `begin` transactions
// persist across lines exactly as they do locally. The extra `shards;`
// statement prints the server's shard status (LSN, epoch, shard
// coordinates, in-doubt transactions).
//
// With -connect-shards the shell is an operator console for a shard
// group: `shards;` prints every shard's status through the router and
// `resolve;` settles in-doubt two-phase commits (see docs/SHARDING.md).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ode"
	"ode/client"
	"ode/internal/oql"
)

func main() {
	dbPath := flag.String("db", "", "database file (required unless -connect)")
	connect := flag.String("connect", "", "run against a remote ode-server at host:port")
	connectShards := flag.String("connect-shards", "", "comma-separated shard addresses; operator console over the router (shards; resolve;)")
	poolPages := flag.Int("pool", 1024, "buffer pool size in pages")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ode-sh -db FILE [script.oql ...]\n       ode-sh -connect HOST:PORT [script.oql ...]\n       ode-sh -connect-shards HOST:PORT,HOST:PORT,...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *connectShards != "" {
		remoteShards(strings.Split(*connectShards, ","))
		return
	}
	if *connect != "" {
		remote(*connect, flag.Args())
		return
	}
	if *dbPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Phase 1: parse all scripts, registering classes into the schema.
	schema := ode.NewSchema()
	var programs []*oql.Program
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		prog, err := oql.SplitSchema(string(src), schema)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		programs = append(programs, prog)
	}

	db, err := ode.Open(*dbPath, schema, &ode.Options{PoolPages: *poolPages})
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	sess := oql.NewSession(db, os.Stdout)
	for i, prog := range programs {
		if err := sess.Run(prog); err != nil {
			fatal(fmt.Errorf("%s: %w", flag.Arg(i), err))
		}
	}
	if len(programs) > 0 {
		if err := sess.Close(); err != nil {
			fatal(err)
		}
		db.Triggers().Wait()
		return
	}

	repl("ode-sh — O++ subset shell. End statements with ';'. Ctrl-D to exit.", func(src string) error {
		err := sess.Exec(src)
		db.Triggers().Wait()
		for _, e := range db.Triggers().Errors() {
			fmt.Fprintln(os.Stderr, "trigger error:", e)
		}
		return err
	})
	if err := sess.Close(); err != nil {
		fatal(err)
	}
	db.Triggers().Wait()
}

// remote runs scripts (or the REPL) against an ode-server daemon. The
// whole interpreter lives server-side; each statement batch is one
// wire round trip and the printed output comes back as text.
func remote(addr string, scripts []string) {
	c, err := client.Dial(addr, ode.NewSchema(), nil)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	sess, err := c.Session(ctx)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()

	exec := func(src string) error {
		if isStmt(src, "shards") {
			st, err := c.ShardStatus(ctx)
			if err != nil {
				return err
			}
			printShard(-1, addr, st)
			return nil
		}
		out, err := sess.Exec(ctx, src)
		if out != "" {
			fmt.Print(out)
		}
		return err
	}

	if len(scripts) > 0 {
		for _, path := range scripts {
			src, err := os.ReadFile(path)
			if err != nil {
				fatal(err)
			}
			if err := exec(string(src)); err != nil {
				fatal(fmt.Errorf("%s: %w", path, err))
			}
		}
		return
	}

	repl(fmt.Sprintf("ode-sh — connected to %s. End statements with ';'. Ctrl-D to exit.", addr), exec)
}

// remoteShards is the operator console for a shard group: statements
// go to the router, not an interpreter. `shards;` prints every shard's
// status and `resolve;` settles in-doubt two-phase commits.
func remoteShards(addrs []string) {
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	r, err := client.DialSharded(addrs, ode.NewSchema(), nil)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	ctx := context.Background()

	exec := func(src string) error {
		switch {
		case isStmt(src, "shards"):
			sts, err := r.Status(ctx)
			for i, st := range sts {
				if st == nil {
					fmt.Printf("shard %d @ %s  UNREACHABLE\n", i, addrs[i])
					continue
				}
				printShard(i, addrs[i], st)
			}
			return err
		case isStmt(src, "resolve"):
			n, err := r.ResolveInDoubt(ctx)
			fmt.Printf("resolved %d in-doubt transaction(s)\n", n)
			return err
		default:
			return fmt.Errorf("router mode understands 'shards;' and 'resolve;' only; connect to one shard with -connect to run O++ statements")
		}
	}

	repl(fmt.Sprintf("ode-sh — router over %d shards. Statements: shards; resolve;. Ctrl-D to exit.", len(addrs)), exec)
}

// repl is the interactive loop of all three modes: it prints the
// banner, accumulates stdin lines until they form a complete statement
// batch, and hands each batch to exec, reporting its error without
// leaving the loop. Ctrl-D ends it.
func repl(banner string, exec func(src string) error) {
	fmt.Println(banner)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "ode> "
	for {
		fmt.Print(prompt)
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
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
}

// isStmt reports whether src is exactly the given bare statement,
// allowing the closing ';' and surrounding whitespace.
func isStmt(src, word string) bool {
	return strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(src), ";")) == word
}

// printShard renders one node's shard status. slot -1 means "whatever
// the server says" (single -connect mode).
func printShard(slot int, addr string, st *client.ShardStatus) {
	role := "rw"
	if st.ReadOnly {
		role = "ro"
	}
	coords := "unsharded"
	if st.Count > 0 {
		coords = fmt.Sprintf("slot %d/%d", st.Slot, st.Count)
	}
	label := ""
	if slot >= 0 {
		label = fmt.Sprintf("shard %d ", slot)
	}
	fmt.Printf("%s@ %s  %s  lsn=%d epoch=%d %s  prepared=%d\n",
		label, addr, coords, st.LSN, st.Epoch, role, len(st.Prepared))
	for _, p := range st.Prepared {
		rec := ""
		if p.Recovered {
			rec = " recovered"
		}
		fmt.Printf("  in-doubt %s  ops=%d age=%s%s\n", p.GID, p.Ops, p.Age.Round(time.Millisecond), rec)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ode-sh:", err)
	os.Exit(1)
}
