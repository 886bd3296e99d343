package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestShardArgsForwardsByName: the sharded benchmark workload's proxy
// command line becomes the dronet-serve arguments of every shard, with the
// proxy's defaults for the shard settings it does not set.
func TestShardArgsForwardsByName(t *testing.T) {
	if err := flag.CommandLine.Parse([]string{"-spawn", "2", "-workers", "1", "-scale", "0.25", "-size", "96"}); err != nil {
		t.Fatal(err)
	}
	want := []string{"-addr", "127.0.0.1:0", "-size", "96", "-scale", "0.25", "-workers", "1",
		"-max-batch", "4", "-precision", "fp32", "-models", ""}
	if got := shardArgs(flag.CommandLine); !reflect.DeepEqual(got, want) {
		t.Errorf("shardArgs = %q, want %q", got, want)
	}
}
