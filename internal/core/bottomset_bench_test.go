package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hashing"
	"repro/internal/netsim"
)

// BenchmarkBottomSetOffer times bottomSet.Offer, the hot path of each offer
// a coordinator dispatches.
//
// The "stream" cases cycle 65,536 distinct keys with uniform hashes through a
// set of capacity s. After the first lap almost every offer is a threshold
// reject (one compare), so they mostly time rejection; at s = 16384 a quarter
// of the first lap still inserts. The "insert" cases time only offers that
// beat u: the set is filled with s hashes in [0.5, 1), then offered s fresh
// hashes in [0, 0.5), each inserted at a uniform position below u and
// evicting the maximum; the set is refilled (off the clock) every s offers.
func BenchmarkBottomSetOffer(b *testing.B) {
	hasher := hashing.NewMurmur2(7)
	const keys = 1 << 16
	type pair struct {
		key  string
		hash float64
	}
	pairs := make([]pair, keys)
	for i := range pairs {
		key := fmt.Sprintf("bs-key-%d", i)
		pairs[i] = pair{key: key, hash: hasher.Unit(key)}
	}
	for _, s := range []int{32, 256, 2048, 16384} {
		b.Run(fmt.Sprintf("stream/s=%d", s), func(b *testing.B) {
			set := newBottomSet(s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%keys]
				set.Offer(p.key, p.hash)
			}
		})
	}
	for _, s := range []int{2048, 16384} {
		b.Run(fmt.Sprintf("insert/s=%d", s), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(s)))
			base := make([]netsim.SampleEntry, s)
			inserts := make([]netsim.SampleEntry, s)
			for i := range base {
				base[i] = netsim.SampleEntry{Key: fmt.Sprintf("base-%d", i), Hash: 0.5 + rng.Float64()/2}
				inserts[i] = netsim.SampleEntry{Key: fmt.Sprintf("ins-%d", i), Hash: rng.Float64() / 2}
			}
			set := newBottomSet(s)
			set.Restore(base)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % s
				if j == 0 && i > 0 {
					b.StopTimer()
					set.Restore(base)
					b.StartTimer()
				}
				if !set.Offer(inserts[j].Key, inserts[j].Hash) {
					b.Fatalf("insert %d did not beat u", j)
				}
			}
		})
	}
}

// BenchmarkSiteThresholdReply times InfiniteSite.OnMessage, the site's memo
// refresh on a threshold reply, against a memo of 16384 offered keys. Each
// reply lowers u just below the memo's largest hash, so it forgets exactly
// one key, as a reply after a coordinator insert typically does. The memo is
// restored (off the clock) every 1024 replies, so it holds 15360 to 16384
// keys throughout.
func BenchmarkSiteThresholdReply(b *testing.B) {
	const memoKeys, refill = 16384, 1024
	hasher := hashing.NewMurmur2(7)
	site := NewInfiniteSite(0, hasher)
	out := &netsim.Outbox{}
	for i := 0; i < memoKeys; i++ {
		site.OnArrival(fmt.Sprintf("memo-key-%d", i), 0, out)
	}
	full := site.offered.Entries()
	replies := make([]netsim.Message, refill)
	for j := range replies {
		replies[j] = netsim.Message{Kind: netsim.KindThreshold, U: full[len(full)-1-j].Hash}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % refill
		if j == 0 && i > 0 {
			b.StopTimer()
			site.offered.Restore(full)
			b.StartTimer()
		}
		site.OnMessage(replies[j], 0, out)
	}
}
