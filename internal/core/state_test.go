package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hashing"
	"repro/internal/netsim"
)

// randomKeys returns a key universe for the randomized offer streams.
func randomKeys(rng *rand.Rand, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d-%d", i, rng.Int63())
	}
	return keys
}

// driveInfinite feeds count random offers into an infinite sampler.
func driveInfinite(rng *rand.Rand, s Sampler, keys []string, hasher hashing.UnitHasher, count int) {
	for i := 0; i < count; i++ {
		key := keys[rng.Intn(len(keys))]
		s.Offer(Offer{Key: key, Hash: hasher.Unit(key)})
	}
}

// TestSnapshotRoundTripProperty is the quick-check-style property test of
// the unified sampler API: for every sampler kind, under randomized offer
// streams, Snapshot → Restore (into a fresh sampler) → Snapshot must be
// byte-identical at the encoding level, Restore must be idempotent, and the
// restored sampler's observable sample must equal the original's. 30 seeded
// trials per kind.
func TestSnapshotRoundTripProperty(t *testing.T) {
	const trials = 30
	hasher := hashing.NewMurmur2(99)

	check := func(t *testing.T, trial int, src, dst Sampler) {
		t.Helper()
		st := src.Snapshot()
		encoded := EncodeState(st)
		decoded, err := DecodeState(encoded)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if err := dst.Restore(decoded); err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}
		reencoded := EncodeState(dst.Snapshot())
		if !bytes.Equal(encoded, reencoded) {
			t.Fatalf("trial %d: Snapshot→Restore→Snapshot not byte-identical\n first: %x\nsecond: %x", trial, encoded, reencoded)
		}
		// Idempotence: restoring the same snapshot again changes nothing.
		if err := dst.Restore(decoded); err != nil {
			t.Fatalf("trial %d: re-restore: %v", trial, err)
		}
		if again := EncodeState(dst.Snapshot()); !bytes.Equal(encoded, again) {
			t.Fatalf("trial %d: re-restoring the same snapshot changed the state", trial)
		}
		// The observable sample survives too.
		a, b := src.Sample(), dst.Sample()
		if len(a) != len(b) {
			t.Fatalf("trial %d: restored sample has %d entries, want %d", trial, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: restored sample[%d] = %+v, want %+v", trial, i, b[i], a[i])
			}
		}
		if src.Threshold() != dst.Threshold() {
			t.Fatalf("trial %d: restored threshold %v, want %v", trial, dst.Threshold(), src.Threshold())
		}
	}

	t.Run("infinite", func(t *testing.T) {
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			s := 1 + rng.Intn(48)
			src := NewInfiniteCoordinator(s)
			driveInfinite(rng, src, randomKeys(rng, 1+rng.Intn(300)), hasher, rng.Intn(600))
			check(t, trial, src, NewInfiniteCoordinator(s))
		}
	})

	t.Run("with-replacement", func(t *testing.T) {
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(2000 + trial)))
			s := 1 + rng.Intn(16)
			family := hashing.NewFamily(hashing.KindMurmur2, uint64(trial)+7, s)
			src := NewWithReplacementCoordinator(s)
			keys := randomKeys(rng, 1+rng.Intn(200))
			for i, n := 0, rng.Intn(500); i < n; i++ {
				key := keys[rng.Intn(len(keys))]
				copyIdx := rng.Intn(s)
				src.Offer(Offer{Key: key, Hash: family.At(copyIdx).Unit(key), Copy: copyIdx})
			}
			check(t, trial, src, NewWithReplacementCoordinator(s))
		}
	})
}

// TestStateEncodingRejectsGarbage pins the decoder's version fence and its
// refusal of truncated or implausible inputs.
func TestStateEncodingRejectsGarbage(t *testing.T) {
	good := EncodeState(State{
		Version: StateVersion, Kind: StateInfinite, SampleSize: 4,
		Sections: []SectionState{{Entries: []netsim.SampleEntry{{Key: "a", Hash: 0.5}}}},
	})
	if _, err := DecodeState(good); err != nil {
		t.Fatalf("well-formed state rejected: %v", err)
	}
	// Version fence: a future version must be rejected up front, exactly
	// like a wire epoch — never misparsed.
	future := append([]byte(nil), good...)
	future[0] = StateVersion + 1
	if _, err := DecodeState(future); err == nil {
		t.Fatal("future snapshot version accepted")
	}
	// Truncations at every prefix must error, never panic.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeState(good[:i]); err == nil && i > 0 {
			// A prefix that happens to be self-delimiting is acceptable only
			// if it decodes to fewer sections; re-encoding must not match.
			st, _ := DecodeState(good[:i])
			if bytes.Equal(EncodeState(st), good) {
				t.Fatalf("truncation at %d decoded to the full state", i)
			}
		}
	}
	if _, err := DecodeState(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestRestoreRejectsMismatches pins the kind and sample-size envelope
// checks: pouring a snapshot into the wrong sampler must fail loudly.
func TestRestoreRejectsMismatches(t *testing.T) {
	inf := NewInfiniteCoordinator(8)
	inf.Offer(Offer{Key: "x", Hash: 0.25})
	wr := NewWithReplacementCoordinator(8)

	if err := wr.Restore(inf.Snapshot()); err == nil {
		t.Fatal("with-replacement sampler accepted an infinite snapshot")
	}
	if err := NewInfiniteCoordinator(16).Restore(inf.Snapshot()); err == nil {
		t.Fatal("s=16 sampler accepted an s=8 snapshot")
	}
	bad := inf.Snapshot()
	bad.Version = StateVersion + 1
	if err := inf.Restore(bad); err == nil {
		t.Fatal("sampler accepted a future-version snapshot")
	}
}

// TestMergeStatesUnionSemantics pins the generic absorption step: restoring
// a merged state applies each kind's own union semantics.
func TestMergeStatesUnionSemantics(t *testing.T) {
	hasher := hashing.NewMurmur2(7)
	a, b := NewInfiniteCoordinator(4), NewInfiniteCoordinator(4)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("a-%d", i)
		a.Offer(Offer{Key: key, Hash: hasher.Unit(key)})
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("b-%d", i)
		b.Offer(Offer{Key: key, Hash: hasher.Unit(key)})
	}
	merged, err := MergeStates(a.Snapshot(), b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	dst := NewInfiniteCoordinator(4)
	if err := dst.Restore(merged); err != nil {
		t.Fatal(err)
	}
	// The reference: one sampler that saw both streams.
	want := NewInfiniteCoordinator(4)
	for i := 0; i < 40; i++ {
		for _, prefix := range []string{"a", "b"} {
			key := fmt.Sprintf("%s-%d", prefix, i)
			want.Offer(Offer{Key: key, Hash: hasher.Unit(key)})
		}
	}
	got, exp := dst.Sample(), want.Sample()
	if len(got) != len(exp) {
		t.Fatalf("merged restore has %d entries, want %d", len(got), len(exp))
	}
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("merged restore sample[%d] = %+v, want %+v", i, got[i], exp[i])
		}
	}
	// Kind mismatches refuse to merge.
	if _, err := MergeStates(a.Snapshot(), NewWithReplacementCoordinator(4).Snapshot()); err == nil {
		t.Fatal("merged an infinite state with a with-replacement one")
	}
}

// BenchmarkDecodeState times decoding the state of a full s = 16384
// infinite-window sample, the frame a replica applies each sync round.
func BenchmarkDecodeState(b *testing.B) {
	hasher := hashing.NewMurmur2(3)
	c := NewInfiniteCoordinator(16384)
	for i := 0; i < 4*16384; i++ {
		key := fmt.Sprintf("decode-key-%d", i)
		c.Offer(Offer{Key: key, Hash: hasher.Unit(key)})
	}
	enc := EncodeState(c.Snapshot())
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeState(enc); err != nil {
			b.Fatal(err)
		}
	}
}
