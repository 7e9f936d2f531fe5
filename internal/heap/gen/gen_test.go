package gen

import (
	"testing"

	"cormi/internal/ir"
	"cormi/internal/lang"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cp, err := lang.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := ir.Lower(cp)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

// The generated corpus must be valid MiniJP at every scale the gates
// use, and deterministic for a fixed config.
func TestGenerateCompilesAndIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Components: 5, FuncsPerComponent: 8}
	c1 := Generate(cfg)
	c2 := Generate(cfg)
	if c1.Source != c2.Source {
		t.Fatal("same config produced different sources")
	}
	p := compile(t, c1.Source)
	// 8 app helpers + take + get per component.
	if want := 5 * (8 + 2); len(p.Funcs) != want {
		t.Fatalf("got %d bodied funcs, want %d", len(p.Funcs), want)
	}
	if len(c1.Funcs) != 5*8 {
		t.Fatalf("got %d listed funcs, want %d", len(c1.Funcs), 5*8)
	}
}
