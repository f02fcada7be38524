package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, directed, weighted bool) bool {
		r := rand.New(rand.NewSource(seed))
		kind := Undirected
		if directed {
			kind = Directed
		}
		n := 1 + r.Intn(30)
		b := NewBuilder(kind).EnsureNodes(n).AllowSelfLoops()
		if weighted {
			b.Weighted()
		}
		for i := 0; i < r.Intn(90); i++ {
			b.AddWeightedEdge(int32(r.Intn(n)), int32(r.Intn(n)), float64(1+r.Intn(9)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return g2.Kind() == g.Kind() &&
			g2.Weighted() == g.Weighted() &&
			g2.NumNodes() == g.NumNodes() &&
			g2.NumEdges() == g.NumEdges() &&
			reflect.DeepEqual(SortedEdges(g), SortedEdges(g2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

func TestBinaryPreservesIsolatedNodes(t *testing.T) {
	// Unlike the text format, the binary snapshot keeps trailing isolated
	// nodes.
	g := NewBuilder(Undirected).EnsureNodes(10).AddEdge(0, 1).MustBuild()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 10 {
		t.Errorf("nodes = %d, want 10", g2.NumNodes())
	}
}

func TestBinaryChecksumDetectsCorruption(t *testing.T) {
	g := NewBuilder(Undirected).Weighted().
		AddWeightedEdge(0, 1, 2).AddWeightedEdge(1, 2, 3).MustBuild()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte in the middle of the payload.
	data[len(data)/2] ^= 0xff
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("corrupted payload must fail the checksum")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC and then some longer content here........"),
	}
	for _, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("input %q: want error", data)
		}
	}
}

func TestBinaryTruncated(t *testing.T) {
	g := NewBuilder(Directed).AddEdge(0, 1).AddEdge(1, 2).MustBuild()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{9, 20, len(data) - 4} {
		if _, err := ReadBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d: want error", cut)
		}
	}
}
