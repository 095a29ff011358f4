package store

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzSignatureDecode throws arbitrary bytes at the codec. The decoder must
// never panic or allocate unboundedly; every failure must wrap ErrCorrupt
// (so the store quarantines instead of crashing), except ErrWrongKind for
// bytes that really are a healthy reuse signature; and anything that does
// decode must re-encode and decode back to the same value.
func FuzzSignatureDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if err := Encode(&buf, genSignature(r)); err != nil {
			f.Fatalf("seeding: %v", err)
		}
		f.Add(buf.Bytes())
		// A truncated and a bit-flipped variant seed the corrupt paths.
		f.Add(buf.Bytes()[:buf.Len()/2])
		flipped := append([]byte(nil), buf.Bytes()...)
		flipped[buf.Len()/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("TXSG\x01"))
	// Version-3 objects seed the uncertainty record, whole, truncated in
	// it and bit-flipped in it.
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := Encode(&buf, withUncertainty(r, genSignature(r))); err != nil {
			f.Fatalf("seeding: %v", err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-12])
		flipped := append([]byte(nil), buf.Bytes()...)
		flipped[buf.Len()-14] ^= 0x01
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sig, err := Decode(bytes.NewReader(data))
		if errors.Is(err, ErrWrongKind) {
			if _, rerr := DecodeReuse(bytes.NewReader(data)); rerr != nil {
				t.Fatalf("wrong kind reported for bytes that are no reuse signature (%v): %v", rerr, err)
			}
			return
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, sig); err != nil {
			t.Fatalf("re-encoding a decoded signature: %v", err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded signature: %v", err)
		}
		if !reflect.DeepEqual(sig, again) {
			t.Fatalf("re-encode round trip diverged:\nfirst  %+v\nsecond %+v", sig, again)
		}
	})
}

// FuzzReuseDecode is FuzzSignatureDecode for the reuse-signature codec:
// no panic, every failure wraps ErrCorrupt except ErrWrongKind for a
// healthy trace signature, and anything that decodes round-trips.
func FuzzReuseDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if err := EncodeReuse(&buf, genReuse(r)); err != nil {
			f.Fatalf("seeding: %v", err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		flipped := append([]byte(nil), buf.Bytes()...)
		flipped[buf.Len()/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("TXSG\x02R"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := DecodeReuse(bytes.NewReader(data))
		if errors.Is(err, ErrWrongKind) {
			if _, serr := Decode(bytes.NewReader(data)); serr != nil {
				t.Fatalf("wrong kind reported for bytes that are no trace signature (%v): %v", serr, err)
			}
			return
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := EncodeReuse(&buf, rs); err != nil {
			t.Fatalf("re-encoding a decoded reuse signature: %v", err)
		}
		again, err := DecodeReuse(&buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded reuse signature: %v", err)
		}
		if !reflect.DeepEqual(rs, again) {
			t.Fatalf("re-encode round trip diverged:\nfirst  %+v\nsecond %+v", rs, again)
		}
	})
}
