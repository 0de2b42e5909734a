package persist

import (
	"reflect"
	"testing"
)

// FuzzDecodeRecord feeds DecodeRecord arbitrary payloads — replicas decode
// WAL records received over the network. Every input must decode or error
// without panicking, and a decoded record must survive Encode and a second
// DecodeRecord unchanged.
func FuzzDecodeRecord(f *testing.F) {
	for i := 0; i < 2; i++ { // testRecord alternates the eager flag
		f.Add(testRecord(i).Encode())
	}
	f.Add((&Record{FromVersion: 5, ToVersion: 7, Generation: 9}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		again, err := DecodeRecord(rec.Encode())
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, rec)
		}
	})
}
