package db

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestParseRejectsNUL: adversarial NUL bytes are reported as errors, both
// at the top of Parse and through Fact.Validate.
func TestParseRejectsNUL(t *testing.T) {
	if _, err := Parse("R(a \x00 | b)"); err == nil || !strings.Contains(err.Error(), "NUL") {
		t.Errorf("Parse with raw NUL: err = %v, want a NUL-byte error", err)
	}
	if err := (Fact{Rel: "R", KeyLen: 1, Args: []string{"a\x00b"}}).Validate(); err == nil {
		t.Error("Validate accepted an argument containing NUL")
	}
	if err := (Fact{Rel: "R\x00", KeyLen: 1, Args: []string{"a"}}).Validate(); err == nil {
		t.Error("Validate accepted a relation name containing NUL")
	}
}

// TestParseRejectsOversizedRow: rows wider than MaxArity are errors, not
// memory bombs.
func TestParseRejectsOversizedRow(t *testing.T) {
	var b strings.Builder
	b.WriteString("R(k")
	for i := 0; i <= MaxArity; i++ {
		b.WriteString(", a")
	}
	b.WriteString(")")
	if _, err := Parse(b.String()); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Errorf("oversized row: err = %v, want an arity error", err)
	}
}

// TestParseRejectsConflictingSignatures: a relation may not appear with two
// different signatures (the textual analogue of duplicate conflicting
// relation headers).
func TestParseRejectsConflictingSignatures(t *testing.T) {
	for _, input := range []string{
		"R(a | b)\nR(a, b | c)",
		"R(a)\nR(a | b)",
	} {
		if _, err := Parse(input); err == nil {
			t.Errorf("Parse(%q) accepted conflicting signatures", input)
		}
	}
}

// TestParseGarbageAllocBounded: Parse presizes its buffers from character
// counts taken before any syntax is checked, so the presize is capped.
// Megabytes of '(' or ',' are rejected at the first bad token without
// allocating in proportion to those counts.
func TestParseGarbageAllocBounded(t *testing.T) {
	const n = 4 << 20
	for name, input := range map[string]string{
		"parens":             strings.Repeat("(", n),
		"commas":             strings.Repeat(",", n),
		"parens after facts": "R(a | b)\nR(c | d)\n" + strings.Repeat("(", n),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(input)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: Parse accepted garbage", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > n/4 {
			t.Errorf("%s: Parse of %d bytes allocated %d bytes before rejecting it", name, n, got)
		}
	}
}

// TestReadSnapshotGarbage: arbitrary bytes and invalid embedded facts must
// come back as errors, never panics.
func TestReadSnapshotGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("garbage"),
		bytes.Repeat([]byte{0x7f}, 1024),
	} {
		if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("ReadSnapshot(%d garbage bytes) succeeded", len(data))
		}
	}
	// A structurally valid snapshot holding an invalid fact is rejected too.
	var buf bytes.Buffer
	d := MustParse("R(a | b)")
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(good)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
}

// TestDBJSONRoundTrip: the JSON encoding used by the certd wire protocol
// preserves the fact set and rejects invalid fact lists.
func TestDBJSONRoundTrip(t *testing.T) {
	d := MustParse("C(PODS, 2016 | Rome)\nC(PODS, 2016 | Paris)\nR(PODS | A)")
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back DB
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !d.Equal(&back) {
		t.Fatalf("round trip changed database:\n%s\nvs\n%s", d, &back)
	}
	if err := json.Unmarshal([]byte(`{"facts":[{"rel":"R","key_len":9,"args":["a"]}]}`), &back); err == nil {
		t.Error("unmarshal accepted an invalid signature")
	}
}
