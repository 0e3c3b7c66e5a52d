package workload

import (
	"testing"

	"coterie/internal/nodeset"
)

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Config{}); err == nil {
		t.Error("empty members accepted")
	}
	if _, err := NewGenerator(Config{Members: nodeset.New(0), ReadFraction: 1.5}); err == nil {
		t.Error("read fraction > 1 accepted")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := Config{Members: nodeset.Range(0, 5), ReadFraction: 0.5, Seed: 9}
	a, _ := NewGenerator(cfg)
	b, _ := NewGenerator(cfg)
	for i := 0; i < 100; i++ {
		oa, ob := a.Next(), b.Next()
		if oa.Kind != ob.Kind || oa.Coordinator != ob.Coordinator ||
			oa.Update.Offset != ob.Update.Offset || string(oa.Update.Data) != string(ob.Update.Data) {
			t.Fatalf("divergence at op %d: %+v vs %+v", i, oa, ob)
		}
	}
}

func TestGeneratorRespectsBounds(t *testing.T) {
	cfg := Config{Members: nodeset.Range(0, 3), ReadFraction: 0.3, ItemSize: 64, MaxWriteLen: 8, Seed: 1}
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for i := 0; i < 2000; i++ {
		op := g.Next()
		if !cfg.Members.Contains(op.Coordinator) {
			t.Fatalf("coordinator %v outside members", op.Coordinator)
		}
		if op.Kind == OpRead {
			reads++
			continue
		}
		if len(op.Update.Data) == 0 || len(op.Update.Data) > 8 {
			t.Fatalf("write length %d", len(op.Update.Data))
		}
		if op.Update.Offset < 0 || op.Update.Offset+len(op.Update.Data) > 64 {
			t.Fatalf("write range [%d,+%d) outside item", op.Update.Offset, len(op.Update.Data))
		}
	}
	frac := float64(reads) / 2000
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("read fraction %.3f, want ~0.3", frac)
	}
}

func TestGeneratorWriteLenCappedByItem(t *testing.T) {
	g, err := NewGenerator(Config{Members: nodeset.New(0), ItemSize: 4, MaxWriteLen: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if op := g.Next(); op.Kind == OpWrite && op.Update.Offset+len(op.Update.Data) > 4 {
			t.Fatalf("write overflows item: %+v", op.Update)
		}
	}
}
