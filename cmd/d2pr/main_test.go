package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.tsv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const sampleEdges = "0 1\n0 2\n0 3\n1 2\n2 4\n4 5\n"

func TestRunD2PRTop(t *testing.T) {
	path := writeTemp(t, sampleEdges)
	var out bytes.Buffer
	err := run([]string{"-p", "0.5", "-top", "3", path}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("output lines = %d:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "rank\tnode") {
		t.Errorf("missing header: %q", lines[0])
	}
}

func TestRunScoresOutput(t *testing.T) {
	path := writeTemp(t, sampleEdges)
	var out bytes.Buffer
	if err := run([]string{"-algo", "pagerank", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("want 6 score lines, got %d", len(lines))
	}
}

func TestRunStdin(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-algo", "degree", "-"}, strings.NewReader(sampleEdges), &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(out.String()), "\n")) != 6 {
		t.Error("stdin path broken")
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	path := writeTemp(t, sampleEdges)
	for _, algo := range []string{"d2pr", "pagerank", "hits", "degree", "closeness", "betweenness", "eigenvector"} {
		var out bytes.Buffer
		if err := run([]string{"-algo", algo, path}, nil, &out); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-algo", "ppr", "-seeds", "0,2", path}, nil, &out); err != nil {
		t.Errorf("ppr: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTemp(t, sampleEdges)
	cases := [][]string{
		{},                                   // no file
		{path, "extra"},                      // too many args
		{"-algo", "bogus", path},             // unknown algorithm
		{"-algo", "ppr", path},               // ppr without seeds
		{"-beta", "2", path},                 // invalid beta
		{"-p", "NaN", path},                  // non-finite p
		{"-p", "-Inf", "-beta", "0.5", path}, // non-finite p in a blend
		{"-alpha", "NaN", path},              // non-finite alpha
		{"-tol", "NaN", path},                // non-finite tolerance
		{"-seeds", "4294967296", path},       // wraps to node 0 as an int32
		{"-algo", "ppr", "-seeds", "4294967299", path},   // wraps to node 3
		{"-algo", "pagerank", "-seeds", "1", path},       // seeds on an unpersonalized algorithm
		{"-algo", "hits", "-seeds", "99999999999", path}, // the same, with an id past int32
		{filepath.Join(t.TempDir(), "nope")},             // missing file
	}
	for _, args := range cases {
		if err := run(args, nil, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

func TestRunWeightedDirected(t *testing.T) {
	path := writeTemp(t, "0 1 2.5\n1 2 1.0\n2 0 4.0\n")
	var out bytes.Buffer
	err := run([]string{"-directed", "-weighted", "-p", "1", "-beta", "0.5", path}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("1,22, 333")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int32{1, 22, 333}) {
		t.Errorf("got %v", got)
	}
	if got, err := parseSeeds(" 0 ,2147483647"); err != nil || !reflect.DeepEqual(got, []int32{0, 1<<31 - 1}) {
		t.Errorf("largest id: got %v, %v", got, err)
	}
	for _, bad := range []string{
		"", "1,,2", "a", "1;2", "1 2", "-1", "0,-3",
		// Ids that wrapped onto nodes 0 and 3 through int32 conversion, and
		// one past int64.
		"2147483648", "4294967296", "4294967299", "12345678901234567890",
	} {
		if got, err := parseSeeds(bad); err == nil {
			t.Errorf("%q: want error, got %v", bad, got)
		}
	}
}

// FuzzParseSeeds: an accepted list holds only ids in [0, 2³¹), and joining
// them again parses to the same ids. Explore further with
//
//	go test -run '^$' -fuzz '^FuzzParseSeeds$' -fuzztime 30s ./cmd/d2pr
func FuzzParseSeeds(f *testing.F) {
	for _, s := range []string{"", "0", "1,22, 333", "1,,2", " 7 ", "-1", "+5", "2147483647", "4294967299", "1 2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		seeds, err := parseSeeds(s)
		if err != nil {
			return
		}
		parts := make([]string, len(seeds))
		for i, sd := range seeds {
			if sd < 0 {
				t.Fatalf("%q: negative seed %d", s, sd)
			}
			parts[i] = strconv.Itoa(int(sd))
		}
		again, err := parseSeeds(strings.Join(parts, ","))
		if err != nil || !reflect.DeepEqual(again, seeds) {
			t.Fatalf("%q: %v joined again parses to %v, %v", s, seeds, again, err)
		}
	})
}
