// Package stream defines the data model shared by every component: elements
// of a distributed data stream, the arrival records consumed by the
// simulation engines, and small helpers for reading, writing, and
// summarizing streams.
//
// The model follows Chapter 2 of the paper. A system of k sites observes
// local streams of elements; each observation carries a non-decreasing
// integer time (a "slot"). The union of the local streams is the global
// stream S(t); D(t) is its set of distinct elements.
package stream

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Element is one observation of the logical (pre-distribution) stream.
type Element struct {
	// Key identifies the element; two observations with equal keys are the
	// same element for the purposes of distinct sampling.
	Key string
	// Slot is the integer time of the observation. Slots are non-decreasing
	// within a stream.
	Slot int64
}

// Arrival is one observation of the distributed stream: an element assigned
// to a concrete site. The simulation engines consume ordered slices of
// Arrival records.
type Arrival struct {
	Slot int64
	Site int
	Key  string
}

// Stats summarizes a stream.
type Stats struct {
	Elements int
	Distinct int
	MinSlot  int64
	MaxSlot  int64
}

// Summarize computes the element count, distinct count, and slot range of a
// stream of elements.
func Summarize(elements []Element) Stats {
	s := Stats{Elements: len(elements)}
	if len(elements) == 0 {
		return s
	}
	distinct := make(map[string]struct{}, len(elements))
	s.MinSlot, s.MaxSlot = elements[0].Slot, elements[0].Slot
	for _, e := range elements {
		distinct[e.Key] = struct{}{}
		if e.Slot < s.MinSlot {
			s.MinSlot = e.Slot
		}
		if e.Slot > s.MaxSlot {
			s.MaxSlot = e.Slot
		}
	}
	s.Distinct = len(distinct)
	return s
}

// SummarizeArrivals computes stream statistics over arrival records,
// counting each (slot, site, key) observation once.
func SummarizeArrivals(arrivals []Arrival) Stats {
	s := Stats{Elements: len(arrivals)}
	if len(arrivals) == 0 {
		return s
	}
	distinct := make(map[string]struct{}, len(arrivals))
	s.MinSlot, s.MaxSlot = arrivals[0].Slot, arrivals[0].Slot
	for _, a := range arrivals {
		distinct[a.Key] = struct{}{}
		if a.Slot < s.MinSlot {
			s.MinSlot = a.Slot
		}
		if a.Slot > s.MaxSlot {
			s.MaxSlot = a.Slot
		}
	}
	s.Distinct = len(distinct)
	return s
}

// DistinctKeys returns the set of distinct keys of a stream, in first
// occurrence order.
func DistinctKeys(elements []Element) []string {
	seen := make(map[string]struct{}, len(elements))
	var keys []string
	for _, e := range elements {
		if _, ok := seen[e.Key]; !ok {
			seen[e.Key] = struct{}{}
			keys = append(keys, e.Key)
		}
	}
	return keys
}

// PerSiteDistinct returns, for each site 0..k-1, the number of distinct keys
// that site observes in the arrival stream. Used to evaluate the Observation 1
// per-site message bound.
func PerSiteDistinct(arrivals []Arrival, k int) []int {
	sets := make([]map[string]struct{}, k)
	for i := range sets {
		sets[i] = make(map[string]struct{})
	}
	for _, a := range arrivals {
		if a.Site >= 0 && a.Site < k {
			sets[a.Site][a.Key] = struct{}{}
		}
	}
	counts := make([]int, k)
	for i, s := range sets {
		counts[i] = len(s)
	}
	return counts
}

// SortArrivals orders arrivals by slot (stable within a slot), which is the
// order the sequential engine requires.
func SortArrivals(arrivals []Arrival) {
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].Slot < arrivals[j].Slot })
}

// WindowDistinct returns the set of distinct keys whose most recent arrival
// in arrivals is within the window (now-window, now], i.e. not expired at
// slot now. It is the brute-force oracle used to validate the sliding-window
// sampler.
func WindowDistinct(arrivals []Arrival, now, window int64) map[string]struct{} {
	latest := make(map[string]int64)
	for _, a := range arrivals {
		if a.Slot > now {
			continue
		}
		if prev, ok := latest[a.Key]; !ok || a.Slot > prev {
			latest[a.Key] = a.Slot
		}
	}
	out := make(map[string]struct{})
	for k, slot := range latest {
		if slot > now-window {
			out[k] = struct{}{}
		}
	}
	return out
}

// Write encodes elements as "slot<TAB>key" lines. It is the on-disk format
// produced by cmd/ddsgen and consumed by Read.
func Write(w io.Writer, elements []Element) error {
	bw := bufio.NewWriter(w)
	for _, e := range elements {
		if strings.ContainsAny(e.Key, "\t\n") {
			return fmt.Errorf("stream: key %q contains a tab or newline", e.Key)
		}
		if _, err := fmt.Fprintf(bw, "%d\t%s\n", e.Slot, e.Key); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxLine bounds one line of a stream file, its '\n' included: a longer
// line fails Read with bufio.ErrTooLong.
const maxLine = 1024 * 1024

// Read decodes a stream previously encoded by Write. Lines are split on
// '\n' with one trailing '\r' dropped, blank lines are skipped, and a line
// that does not fit in 1 MiB with its newline fails with bufio.ErrTooLong.
//
// Read loads the whole input into one string and every returned Key is a
// substring of it: the keys alias one string per input, so retaining any
// key retains the whole file. Memory is the file size plus 24 B per element
// (the Element itself); there is no allocation per line.
func Read(r io.Reader) ([]Element, error) {
	text, readErr := readAll(r)
	elements := make([]Element, 0, strings.Count(text, "\n")+1)
	line := 0
	for rest := text; rest != ""; {
		line++
		// One pass over the common line: up to 18 digits (which cannot
		// overflow an int64) and a tab, then the key up to the newline. Any
		// other line (a sign, more digits, no tab, a blank line) goes through
		// the checks below, where strconv.ParseInt builds every slot error.
		var slot int64
		j := 0
		for ; j < len(rest) && j <= 18; j++ {
			d := rest[j] - '0'
			if d > 9 {
				break
			}
			slot = slot*10 + int64(d)
		}
		if j > 0 && j <= 18 && j < len(rest) && rest[j] == '\t' {
			key := rest[j+1:]
			end := strings.IndexByte(key, '\n')
			if end >= 0 {
				key, rest = key[:end], key[end+1:]
			} else {
				rest = ""
			}
			if j+1+len(key) >= maxLine {
				return nil, fmt.Errorf("stream: read: %w", bufio.ErrTooLong)
			}
			if n := len(key); n > 0 && key[n-1] == '\r' {
				key = key[:n-1]
			}
			elements = append(elements, Element{Key: key, Slot: slot})
			continue
		}
		var raw string
		i := strings.IndexByte(rest, '\n')
		if i < 0 {
			raw, rest = rest, ""
		} else {
			raw, rest = rest[:i], rest[i+1:]
		}
		if len(raw) >= maxLine {
			return nil, fmt.Errorf("stream: read: %w", bufio.ErrTooLong)
		}
		if n := len(raw); n > 0 && raw[n-1] == '\r' {
			raw = raw[:n-1]
		}
		if raw == "" {
			continue
		}
		slotStr, key, found := strings.Cut(raw, "\t")
		if !found {
			return nil, fmt.Errorf("stream: line %d: missing tab separator", line)
		}
		slot, err := strconv.ParseInt(slotStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: bad slot: %w", line, err)
		}
		elements = append(elements, Element{Key: key, Slot: slot})
	}
	if readErr != nil {
		return nil, fmt.Errorf("stream: read: %w", readErr)
	}
	return elements, nil
}

// readAll reads r to EOF into one string, allocating once when r can tell
// its size (a file, or an in-memory reader). It returns what it read before
// any error, so Read reports a line's error ahead of a later read failure,
// in input order.
func readAll(r io.Reader) (string, error) {
	size := 0
	switch v := r.(type) {
	case interface{ Len() int }:
		size = v.Len()
	case interface{ Stat() (os.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	}
	// One spare byte lets the final Read see EOF without growing buf.
	buf := make([]byte, 0, max(size+1, 512))
	var err error
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		var n int
		n, err = r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			break
		}
	}
	if err == io.EOF {
		err = nil
	}
	if len(buf) == 0 {
		return "", err
	}
	// buf is never written again, so the string may share its memory.
	return unsafe.String(&buf[0], len(buf)), err
}

// Keys extracts the key sequence of a stream.
func Keys(elements []Element) []string {
	keys := make([]string, len(elements))
	for i, e := range elements {
		keys[i] = e.Key
	}
	return keys
}

// FromKeys builds a stream assigning slot = index to each key, the natural
// choice for infinite-window experiments where only arrival order matters.
func FromKeys(keys []string) []Element {
	elements := make([]Element, len(keys))
	for i, k := range keys {
		elements[i] = Element{Key: k, Slot: int64(i)}
	}
	return elements
}

// Reslot assigns new slots so that perSlot elements share each slot,
// mirroring the paper's sliding-window experiment setup ("in each timestep,
// we assign 5 elements"). Slots start at 1.
func Reslot(elements []Element, perSlot int) []Element {
	if perSlot < 1 {
		perSlot = 1
	}
	out := make([]Element, len(elements))
	for i, e := range elements {
		out[i] = Element{Key: e.Key, Slot: int64(i/perSlot) + 1}
	}
	return out
}
