package hashing

// Murmur2-64A, the 64-bit variant of MurmurHash 2.0 by Austin Appleby,
// re-implemented from the public domain reference. This is the same family
// of hash the paper's Java implementation uses.

const (
	murmur2M = 0xc6a4a7935bd1e995
	murmur2R = 47
)

// Murmur2Sum64 computes the MurmurHash2-64A digest of data under the given
// seed.
func Murmur2Sum64(data []byte, seed uint64) uint64 { return murmur2(data, seed) }

// Murmur2String64 is Murmur2Sum64 of a string's bytes, read in place.
func Murmur2String64(s string, seed uint64) uint64 { return murmur2(s, seed) }

// murmur2 is the one MurmurHash2-64A body, instantiated for strings and
// byte slices so neither form copies its input.
func murmur2[T string | []byte](data T, seed uint64) uint64 {
	h := seed ^ uint64(len(data))*murmur2M

	n := len(data)
	// Body: process 8-byte blocks.
	for ; n >= 8; n -= 8 {
		_ = data[7] // one bounds check for the block
		k := uint64(data[0]) | uint64(data[1])<<8 | uint64(data[2])<<16 | uint64(data[3])<<24 |
			uint64(data[4])<<32 | uint64(data[5])<<40 | uint64(data[6])<<48 | uint64(data[7])<<56
		data = data[8:]

		k *= murmur2M
		k ^= k >> murmur2R
		k *= murmur2M

		h ^= k
		h *= murmur2M
	}

	// Tail: up to 7 trailing bytes.
	switch n {
	case 7:
		h ^= uint64(data[6]) << 48
		fallthrough
	case 6:
		h ^= uint64(data[5]) << 40
		fallthrough
	case 5:
		h ^= uint64(data[4]) << 32
		fallthrough
	case 4:
		h ^= uint64(data[3]) << 24
		fallthrough
	case 3:
		h ^= uint64(data[2]) << 16
		fallthrough
	case 2:
		h ^= uint64(data[1]) << 8
		fallthrough
	case 1:
		h ^= uint64(data[0])
		h *= murmur2M
	}

	h ^= h >> murmur2R
	h *= murmur2M
	h ^= h >> murmur2R
	return h
}
