package serve_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

// FuzzParseModelSpecs holds the -models grammar to two invariants: the
// parser never panics on arbitrary input, and parsing is a fixed point —
// any spec list it accepts must re-render (ModelSpec.String joined with
// commas) into a string that parses back to the identical specs. The
// round trip is what keeps the admin API's spec echo and the startup log
// honest: the canonical form IS a valid spec.
func FuzzParseModelSpecs(f *testing.F) {
	f.Add("default=dronet:208:fp32")
	f.Add("low=dronet:96:int8:150,high=dronet:608:fp32")
	f.Add("low = dronet : 96 : fp32 : 120")
	f.Add("hot=dronet:64:fp32::2.5")              // empty maxalt placeholder
	f.Add("band=dronet:96:int8:120:0.5")          // a fifth field
	f.Add("a=dronet:64:fp32,b=dronet:64:int8::3") // placeholder in a later entry
	f.Add("high=dronet:96:fp32:degrade=low,low=dronet:64:int8:150")
	f.Add("h=dronet:96:fp32:120:2:degrade=l,l=dronet:64:int8") // a fifth field before degrade
	f.Add("x=dronet:96:fp32:degrade=")                         // empty degrade target
	f.Add("x=dronet:96")                                       // too few fields
	f.Add("low=dronet:96:fp32:")                               // bare trailing colon
	f.Add("w=dronet:96:fp32:NaN")                              // NaN altitude
	f.Add("w=dronet:96:fp32::Inf")                             // placeholder with a non-finite value
	f.Add("dup=dronet:64:fp32,dup=dronet:96:int8")
	f.Add("h=dronet:96:fp32:120:degrade=l,l=dronet:64:int8")
	f.Add("")
	f.Add(",,")
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := serve.ParseModelSpecs(s)
		if err != nil {
			return // rejected input: the no-panic property already held
		}
		parts := make([]string, len(specs))
		for i, sp := range specs {
			parts[i] = sp.String()
		}
		canon := strings.Join(parts, ",")
		again, err := serve.ParseModelSpecs(canon)
		if err != nil {
			t.Fatalf("canonical form of accepted input does not re-parse:\n  input %q\n  canon %q\n  err   %v", s, canon, err)
		}
		if !reflect.DeepEqual(specs, again) {
			t.Fatalf("parse is not a fixed point:\n  input  %q\n  canon  %q\n  first  %+v\n  second %+v", s, canon, specs, again)
		}
	})
}
