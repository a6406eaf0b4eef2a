package main

import "testing"

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
