package oql

import (
	"io"

	"ode"
	"ode/internal/core"
)

// Session executes O++ programs against an open database. It keeps an
// ambient transaction (the paper treats a whole O++ program as one
// transaction); `commit;` and `abort;` statements delimit transactions
// explicitly, and Close commits the trailing one.
type Session struct {
	db      *ode.DB
	out     io.Writer
	ambient *ode.Tx
	globals *env
}

// NewSession creates a session writing print output to out.
func NewSession(db *ode.DB, out io.Writer) *Session {
	return &Session{db: db, out: out, globals: newEnv(nil)}
}

// DB returns the session's database.
func (s *Session) DB() *ode.DB { return s.db }

// tx returns the ambient transaction, beginning one if needed.
func (s *Session) tx() (*ode.Tx, error) {
	if s.ambient == nil || !s.ambient.Active() {
		s.ambient = s.db.Begin()
	}
	return s.ambient, nil
}

// Commit commits the ambient transaction (a new one begins lazily).
func (s *Session) Commit() error {
	if s.ambient == nil || !s.ambient.Active() {
		return nil
	}
	err := s.ambient.Commit()
	s.ambient = nil
	return err
}

// AbortTx aborts the ambient transaction.
func (s *Session) AbortTx() {
	if s.ambient != nil {
		s.ambient.Abort()
		s.ambient = nil
	}
}

// Close commits outstanding work.
func (s *Session) Close() error { return s.Commit() }

// Exec parses and runs src: class declarations are registered into the
// database's schema, then statements run in the ambient transaction.
func (s *Session) Exec(src string) error {
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	return s.Run(prog)
}

// Run executes a parsed program. The paper treats a program as one
// transaction, so an error aborts the ambient transaction: nothing the
// failed program did survives, and no open Tx is left behind for
// DB.Close to wait out.
func (s *Session) Run(prog *Program) (err error) {
	defer func() {
		if err != nil {
			s.AbortTx()
		}
	}()
	if len(prog.Classes) > 0 {
		if err := RegisterClasses(prog.Classes, s.db.Schema()); err != nil {
			return err
		}
	}
	ctx := &execCtx{sess: s, out: s.out, env: s.globals}
	if tx, err := s.tx(); err == nil {
		ctx.st = tx
	}
	for _, st := range prog.Stmts {
		// Re-resolve the ambient transaction (commit;/DDL may rotate it).
		tx, err := s.tx()
		if err != nil {
			return err
		}
		ctx.st = tx
		if err := ctx.exec(st); err != nil {
			if _, isReturn := err.(returnSignal); isReturn {
				line, col := st.Pos()
				return errAt(line, col, "return outside a method")
			}
			return err
		}
	}
	return nil
}

// EvalExpr evaluates a single expression and returns its display
// string (REPL convenience).
func (s *Session) EvalExpr(src string) (string, error) {
	p, err := NewParser(src)
	if err != nil {
		return "", err
	}
	e, err := p.expr()
	if err != nil {
		return "", err
	}
	if !p.at(TEOF) && !p.at(TSemi) {
		return "", errAt(p.tok.Line, p.tok.Col, "unexpected %s after expression", p.tok)
	}
	tx, err := s.tx()
	if err != nil {
		return "", err
	}
	ctx := &execCtx{sess: s, st: tx, out: s.out, env: s.globals}
	v, err := ctx.eval(e)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// BuildSchema parses src and registers only its class declarations into
// schema; statements are rejected. Use it to declare the schema before
// ode.Open.
func BuildSchema(src string, schema *core.Schema) error {
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	if len(prog.Stmts) > 0 {
		line, col := prog.Stmts[0].Pos()
		return errAt(line, col, "schema source must contain only class declarations")
	}
	return RegisterClasses(prog.Classes, schema)
}

// SplitSchema parses src and separates class declarations (registered
// into schema) from the remaining program, which the caller runs in a
// Session after opening the database.
func SplitSchema(src string, schema *core.Schema) (*Program, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := RegisterClasses(prog.Classes, schema); err != nil {
		return nil, err
	}
	return &Program{Stmts: prog.Stmts}, nil
}
