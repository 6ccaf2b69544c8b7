package sink

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// salvageFile builds a well-formed three-record shard stream and returns it
// with the individual lines, so tests can tear its tail byte-precisely.
func salvageFile() (stream []byte, lines [][]byte) {
	for i := 0; i < 3; i++ {
		line := appendRecord(nil, Record{Schema: Schema, Index: i, Rounds: i + 1, Name: "salvage/t"})
		lines = append(lines, line)
		stream = append(stream, line...)
	}
	return stream, lines
}

// TestReadRecordsPartialClean: a well-formed stream salvages completely — all
// records, offset at EOF, no torn tail.
func TestReadRecordsPartialClean(t *testing.T) {
	stream, _ := salvageFile()
	recs, off, tail := ReadRecordsPartial(bytes.NewReader(stream))
	if tail != nil {
		t.Fatalf("clean stream reported torn: %v", tail)
	}
	if len(recs) != 3 || off != int64(len(stream)) {
		t.Fatalf("clean stream: %d records, offset %d (want 3, %d)", len(recs), off, len(stream))
	}
	if recs, off, tail := ReadRecordsPartial(strings.NewReader("")); tail != nil || len(recs) != 0 || off != 0 {
		t.Fatalf("empty stream: %d records, offset %d, tail %v", len(recs), off, tail)
	}
}

// TestReadRecordsPartialGoldenTails walks the torn-tail byte patterns a
// killed writer leaves behind. For each, the salvage read must return the
// intact record prefix with Offset at the exact truncation point — and
// truncating there must yield a stream the strict reader accepts.
func TestReadRecordsPartialGoldenTails(t *testing.T) {
	stream, lines := salvageFile()
	prefix := stream[:len(lines[0])+len(lines[1])] // records 0 and 1 intact

	cases := []struct {
		name string
		tail []byte // appended to the two-record prefix
	}{
		{"mid-record cut", lines[2][:len(lines[2])/2]},
		{"half-written final line, cut before terminator", lines[2][:len(lines[2])-1]},
		{"complete JSON but no newline terminator", trimLine(append([]byte(nil), lines[2]...))},
		{"trailing NULs from a preallocated block", []byte("\x00\x00\x00\x00\x00\x00")},
		{"NUL-padded line with terminator", []byte("\x00\x00\x00\n")},
		{"garbage line", []byte("{not json}\n")},
		{"foreign schema line", appendRecord(nil, Record{Schema: Schema + 1, Index: 2})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			torn := append(append([]byte(nil), prefix...), tc.tail...)
			recs, off, tail := ReadRecordsPartial(bytes.NewReader(torn))
			if tail == nil {
				t.Fatalf("torn stream salvaged as clean (%d records)", len(recs))
			}
			if len(recs) != 2 || recs[0].Index != 0 || recs[1].Index != 1 {
				t.Fatalf("salvaged %d records, want the 2-record prefix", len(recs))
			}
			if off != int64(len(prefix)) {
				t.Fatalf("offset %d, want %d (the valid prefix length)", off, len(prefix))
			}
			if tail.Offset != off || tail.Line != 3 {
				t.Fatalf("torn tail positioned at byte %d line %d, want byte %d line 3", tail.Offset, tail.Line, off)
			}
			// The whole point of Offset: truncating there satisfies the
			// strict reader.
			if _, err := ReadRecords(bytes.NewReader(torn[:tail.Offset])); err != nil {
				t.Fatalf("truncated-at-offset stream still rejected: %v", err)
			}
		})
	}
}

// TestReadRecordsPartialStopsAtFirstDefect: bytes after the defect are never
// trusted, even if they happen to look like records again.
func TestReadRecordsPartialStopsAtFirstDefect(t *testing.T) {
	_, lines := salvageFile()
	torn := append(append([]byte(nil), lines[0]...), []byte("{broken\n")...)
	torn = append(torn, lines[1]...) // a valid record stranded past the tear
	recs, off, tail := ReadRecordsPartial(bytes.NewReader(torn))
	if tail == nil || len(recs) != 1 || off != int64(len(lines[0])) {
		t.Fatalf("read past the tear: %d records, offset %d, tail %v", len(recs), off, tail)
	}
}

// FuzzReadRecordsPartial feeds arbitrary bytes to the salvage reader: it
// must not panic, its offset must lie within the input, and the prefix it
// vouches for must satisfy the strict reader with the same records.
func FuzzReadRecordsPartial(f *testing.F) {
	stream, lines := salvageFile()
	f.Add(stream)
	f.Add([]byte{})
	full := goldenV1Params
	full.Gor = true
	f.Add(appendRecord(nil, Record{Schema: Schema, Exp: "T3", Fingerprint: full.Fingerprint(), Index: 4, Seed: -9,
		Rounds: 12, AllDecided: true, Decisions: 4, DecidedValues: []uint64{3}, Params: full}))
	f.Add(appendRecord(nil, Record{Schema: Schema, Index: 1, Err: "panic: boom\n\"x\"", Name: "q/\x01"}))
	for _, tail := range [][]byte{
		lines[2][:len(lines[2])/2],
		trimLine(append([]byte(nil), lines[2]...)),
		[]byte("\x00\x00\x00\n"),
		[]byte("{not json}\n"),
		[]byte("\r\n\n"),
		appendRecord(nil, Record{Schema: Schema + 1, Index: 2}),
	} {
		f.Add(append(append([]byte(nil), lines[0]...), tail...))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		recs, off, tail := ReadRecordsPartial(bytes.NewReader(input))
		if off < 0 || off > int64(len(input)) {
			t.Fatalf("offset %d outside the %d-byte input", off, len(input))
		}
		if tail == nil && off != int64(len(input)) {
			t.Fatalf("clean read stopped at %d of %d bytes", off, len(input))
		}
		if tail != nil && tail.Offset != off {
			t.Fatalf("torn tail at %d, salvage offset %d", tail.Offset, off)
		}
		strict, err := ReadRecords(bytes.NewReader(input[:off]))
		if err != nil {
			t.Fatalf("salvaged %d-byte prefix rejected by the strict reader: %v", off, err)
		}
		if !reflect.DeepEqual(strict, recs) {
			t.Fatalf("strict reader decoded %d records from the prefix, salvage %d", len(strict), len(recs))
		}
	})
}
