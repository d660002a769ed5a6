package core

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzLoadInputs: model-snapshot bytes are untrusted input (a corrupt or
// hand-edited store file). LoadInputs must never panic, and whatever it
// accepts must round-trip: saving the loaded inputs and loading them
// again gives the same inputs. The seed corpus lives in
// testdata/fuzz/FuzzLoadInputs.
func FuzzLoadInputs(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveInputs(&buf, synthInputs(HybridComm{HaloMsgs: 4, HaloBytes: 4e5, HaloExp: 0.7, Barrier: true})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := LoadInputs(bytes.NewReader(data))
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := SaveInputs(&saved, in); err != nil {
			t.Fatalf("accepted input does not save: %v", err)
		}
		back, err := LoadInputs(&saved)
		if err != nil {
			t.Fatalf("saved inputs do not load: %v\n%s", err, saved.Bytes())
		}
		if !reflect.DeepEqual(back, in) {
			t.Fatalf("round trip changed the inputs:\n got  %+v\n want %+v", back, in)
		}
	})
}
