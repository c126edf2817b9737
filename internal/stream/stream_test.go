package stream

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Elements != 0 || s.Distinct != 0 {
		t.Fatalf("Summarize(nil) = %+v", s)
	}
	sa := SummarizeArrivals(nil)
	if sa.Elements != 0 || sa.Distinct != 0 {
		t.Fatalf("SummarizeArrivals(nil) = %+v", sa)
	}
}

func TestSummarize(t *testing.T) {
	elements := []Element{
		{Key: "a", Slot: 5}, {Key: "b", Slot: 2}, {Key: "a", Slot: 9}, {Key: "c", Slot: 3},
	}
	s := Summarize(elements)
	if s.Elements != 4 || s.Distinct != 3 || s.MinSlot != 2 || s.MaxSlot != 9 {
		t.Fatalf("Summarize = %+v", s)
	}
}

func TestSummarizeArrivals(t *testing.T) {
	arrivals := []Arrival{
		{Slot: 1, Site: 0, Key: "x"}, {Slot: 1, Site: 1, Key: "x"}, {Slot: 2, Site: 0, Key: "y"},
	}
	s := SummarizeArrivals(arrivals)
	if s.Elements != 3 || s.Distinct != 2 || s.MinSlot != 1 || s.MaxSlot != 2 {
		t.Fatalf("SummarizeArrivals = %+v", s)
	}
}

func TestDistinctKeysOrder(t *testing.T) {
	elements := FromKeys([]string{"b", "a", "b", "c", "a"})
	got := DistinctKeys(elements)
	want := []string{"b", "a", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DistinctKeys = %v, want %v", got, want)
	}
}

func TestPerSiteDistinct(t *testing.T) {
	arrivals := []Arrival{
		{Site: 0, Key: "a"}, {Site: 0, Key: "a"}, {Site: 0, Key: "b"},
		{Site: 1, Key: "a"},
		{Site: 2, Key: "c"}, {Site: 2, Key: "d"}, {Site: 2, Key: "e"},
		{Site: 9, Key: "ignored-out-of-range"},
	}
	got := PerSiteDistinct(arrivals, 3)
	want := []int{2, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PerSiteDistinct = %v, want %v", got, want)
	}
}

func TestSortArrivalsStable(t *testing.T) {
	arrivals := []Arrival{
		{Slot: 3, Key: "late"},
		{Slot: 1, Key: "first"},
		{Slot: 1, Key: "second"},
		{Slot: 2, Key: "mid"},
	}
	SortArrivals(arrivals)
	gotKeys := make([]string, len(arrivals))
	for i, a := range arrivals {
		gotKeys[i] = a.Key
	}
	want := []string{"first", "second", "mid", "late"}
	if !reflect.DeepEqual(gotKeys, want) {
		t.Fatalf("SortArrivals order = %v, want %v", gotKeys, want)
	}
}

func TestWindowDistinct(t *testing.T) {
	arrivals := []Arrival{
		{Slot: 1, Key: "a"},
		{Slot: 2, Key: "b"},
		{Slot: 5, Key: "a"}, // refreshes a
		{Slot: 6, Key: "c"},
	}
	// Window of size 3 at slot 6 covers slots 4,5,6: a (slot 5) and c (slot 6).
	got := WindowDistinct(arrivals, 6, 3)
	if len(got) != 2 {
		t.Fatalf("WindowDistinct = %v", got)
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := got[k]; !ok {
			t.Fatalf("WindowDistinct missing %q: %v", k, got)
		}
	}
	// At slot 3 with window 3, slots 1..3: a and b.
	got = WindowDistinct(arrivals, 3, 3)
	if _, ok := got["c"]; ok || len(got) != 2 {
		t.Fatalf("WindowDistinct(3,3) = %v", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	elements := []Element{
		{Key: "10.0.0.1->10.0.0.2", Slot: 0},
		{Key: "alice@example.com->bob@example.com", Slot: 1},
		{Key: "key with spaces", Slot: 7},
	}
	var buf bytes.Buffer
	if err := Write(&buf, elements); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, elements) {
		t.Fatalf("round trip mismatch: %v vs %v", got, elements)
	}
}

func TestWriteRejectsTabs(t *testing.T) {
	var buf bytes.Buffer
	err := Write(&buf, []Element{{Key: "bad\tkey", Slot: 0}})
	if err == nil {
		t.Fatal("expected an error for a key containing a tab")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("notanumber\tkey\n")); err == nil {
		t.Fatal("expected a parse error for a bad slot")
	}
	if _, err := Read(strings.NewReader("missing separator\n")); err == nil {
		t.Fatal("expected an error for a missing tab")
	}
	got, err := Read(strings.NewReader("\n\n"))
	if err != nil || len(got) != 0 {
		t.Fatalf("blank lines should be skipped: %v, %v", got, err)
	}
}

func TestKeysAndFromKeys(t *testing.T) {
	keys := []string{"x", "y", "z"}
	elements := FromKeys(keys)
	for i, e := range elements {
		if e.Slot != int64(i) || e.Key != keys[i] {
			t.Fatalf("FromKeys[%d] = %+v", i, e)
		}
	}
	if !reflect.DeepEqual(Keys(elements), keys) {
		t.Fatal("Keys(FromKeys(keys)) != keys")
	}
}

func TestReslot(t *testing.T) {
	elements := FromKeys([]string{"a", "b", "c", "d", "e", "f", "g"})
	out := Reslot(elements, 3)
	wantSlots := []int64{1, 1, 1, 2, 2, 2, 3}
	for i, e := range out {
		if e.Slot != wantSlots[i] {
			t.Fatalf("Reslot slot[%d] = %d, want %d", i, e.Slot, wantSlots[i])
		}
	}
	// perSlot < 1 clamps to 1.
	out = Reslot(elements, 0)
	if out[3].Slot != 4 {
		t.Fatalf("Reslot with perSlot=0: slot[3] = %d, want 4", out[3].Slot)
	}
	// Original untouched.
	if elements[0].Slot != 0 {
		t.Fatal("Reslot mutated its input")
	}
}

func TestWriteReadQuick(t *testing.T) {
	f := func(slots []int64, raw []string) bool {
		n := len(slots)
		if len(raw) < n {
			n = len(raw)
		}
		elements := make([]Element, 0, n)
		for i := 0; i < n; i++ {
			key := strings.Map(func(r rune) rune {
				if r == '\t' || r == '\n' || r == '\r' {
					return '_'
				}
				return r
			}, raw[i])
			if key == "" {
				key = "k"
			}
			elements = append(elements, Element{Key: key, Slot: slots[i]})
		}
		var buf bytes.Buffer
		if err := Write(&buf, elements); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(elements) {
			return false
		}
		for i := range got {
			if got[i] != elements[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeMatchesDistinctKeys(t *testing.T) {
	f := func(rawKeys []uint8) bool {
		keys := make([]string, len(rawKeys))
		for i, b := range rawKeys {
			keys[i] = string(rune('a' + int(b)%16))
		}
		elements := FromKeys(keys)
		s := Summarize(elements)
		dk := DistinctKeys(elements)
		sort.Strings(dk)
		return s.Distinct == len(dk) && s.Elements == len(elements)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// scannerRead is the line reader Read replaced, kept as the oracle Read must
// match element for element and error for error.
func scannerRead(r io.Reader) ([]Element, error) {
	var elements []Element
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		slotStr, key, found := strings.Cut(text, "\t")
		if !found {
			return nil, fmt.Errorf("stream: line %d: missing tab separator", line)
		}
		slot, err := strconv.ParseInt(slotStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: bad slot: %w", line, err)
		}
		elements = append(elements, Element{Key: key, Slot: slot})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: read: %w", err)
	}
	return elements, nil
}

// checkAgainstOracle fails t unless Read and scannerRead agree on input.
func checkAgainstOracle(t *testing.T, input string) {
	t.Helper()
	got, gotErr := Read(strings.NewReader(input))
	want, wantErr := scannerRead(strings.NewReader(input))
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("error %v, oracle %v (input %.60q)", gotErr, wantErr, input)
	}
	if len(got) != len(want) {
		t.Fatalf("%d elements, oracle %d (input %.60q)", len(got), len(want), input)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("element %d = %+v, oracle %+v (input %.60q)", i, got[i], want[i], input)
		}
	}
}

// readSeeds are the edge cases of the line format: CRLF, blank lines, no
// final newline, signed and zero-padded slots, int64 overflow, the 1 MiB
// line limit on both sides, and a missing tab. The rest sit at the edges of
// Read's one-pass parse (at most 18 digits, then a tab): 18- and 19-digit
// slots, a digit run with no tab, an empty or CR-only key, and plain-slot
// lines of exactly maxLine-1 and maxLine bytes before the newline.
func readSeeds() []string {
	long := strings.Repeat("k", 1024*1024)
	return []string{
		"123456789012345678\teighteen\n999999999999999999\tmax18",
		"0000000000000000001\tnineteen-padded\n",
		"12345\n",
		"12345",
		"12 \tspace\n",
		"12\r\n",
		"5\t\r\n",
		"5\t",
		"5\t\t\n",
		"7\t" + long[:maxLine-3] + "\n",
		"7\t" + long[:maxLine-2] + "\n",
		"7\t" + long[:maxLine-4] + "\r\n",
		"7\t" + long[:maxLine-3] + "\r\n",
		"7\t" + long[:maxLine-2],
		"",
		"1\ta\r\n2\tb\r\n",
		"\n\n1\ta\n\n\r\n2\tb\n",
		"1\ta\n2\tb",
		"+5\tplus\n",
		"-3\tminus\n",
		"007\tpadded\n",
		"9223372036854775807\tmax\n",
		"9223372036854775808\toverflow\n",
		"1234567890123456789\tnineteen\n",
		"\tempty-slot\n",
		"1\t\n",
		"1\tx\r\r\n",
		"1\ta\n0\t" + long + "\n",
		"1\ta\n0\t" + long[:1024*1024-3] + "\n",
		"1\ta\n0\t" + long[:1024*1024-3],
		"0\t" + long[:1024*1024-2],
		"1\ta\nmissing separator\n2\tb\n",
		"x\ta\n0\t" + long + "\n",
	}
}

func TestReadMatchesScanner(t *testing.T) {
	for _, in := range readSeeds() {
		checkAgainstOracle(t, in)
	}
}

func FuzzRead(f *testing.F) {
	for _, in := range readSeeds() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkAgainstOracle(t, input)
	})
}

// TestReadReportsReadErrorAfterLines checks the order of a failing reader's
// errors: a bad line read before the failure is reported first, as the
// scanner did, and clean lines are followed by the read error.
func TestReadReportsReadErrorAfterLines(t *testing.T) {
	boom := errors.New("boom")
	for _, in := range []string{"1\ta\nbad\n", "1\ta\n2\tb"} {
		_, gotErr := Read(io.MultiReader(strings.NewReader(in), iotest.ErrReader(boom)))
		_, wantErr := scannerRead(io.MultiReader(strings.NewReader(in), iotest.ErrReader(boom)))
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("input %q: error %v, oracle %v", in, gotErr, wantErr)
		}
	}
}

// TestReadAllocsFlat pins the allocation profile: the input string and the
// element slice, whatever the line count.
func TestReadAllocsFlat(t *testing.T) {
	allocs := func(lines int) float64 {
		var buf bytes.Buffer
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&buf, "%d\tkey-%d\n", i/7, i)
		}
		in := buf.Bytes()
		return testing.AllocsPerRun(20, func() {
			if _, err := Read(bytes.NewReader(in)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(10000)
	if large > small || large > 3 {
		t.Fatalf("allocs per Read: %v at 10 lines, %v at 10000 lines; want flat and at most 3", small, large)
	}
}

// BenchmarkStreamRead times Read against the scanner it replaced on the same
// 100k-line input.
func BenchmarkStreamRead(b *testing.B) {
	const lines = 100000
	var buf bytes.Buffer
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&buf, "%d\t10.0.%d.%d->10.1.%d.%d\n", i/1000, i%251, i%241, i%239, i%233)
	}
	in := buf.Bytes()
	for _, r := range []struct {
		name string
		read func(io.Reader) ([]Element, error)
	}{{"Read", Read}, {"scanner", scannerRead}} {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				if _, err := r.read(bytes.NewReader(in)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/element")
		})
	}
}
