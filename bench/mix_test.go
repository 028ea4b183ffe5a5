package main

import (
	"testing"

	"rescue/internal/loadgen"
)

// TestMixScheduleDigest pins the serve-warm-mix requests: the same seed
// must give the same schedule and replay order, and a change to either
// (in loadgen or in the bench's settings) changes the workload, so it
// must be deliberate.
func TestMixScheduleDigest(t *testing.T) {
	sch, order, err := mixSchedule(1)
	if err != nil {
		t.Fatal(err)
	}
	sch2, order2, err := mixSchedule(1)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Digest() != sch2.Digest() || orderDigest(order) != orderDigest(order2) {
		t.Fatalf("seed 1 built two workloads")
	}
	const wantSchedule, wantOrder = "6458287bc95c6df4b2f61f55d9c1efe5", "195a997d77150187ba33d09e5ae8abcc"
	if got := sch.Digest(); got != wantSchedule {
		t.Errorf("seed 1 schedule digest = %s, want %s", got, wantSchedule)
	}
	if got := orderDigest(order); got != wantOrder {
		t.Errorf("seed 1 order digest = %s, want %s", got, wantOrder)
	}
	_, order3, err := mixSchedule(2)
	if err != nil {
		t.Fatal(err)
	}
	if orderDigest(order3) == orderDigest(order) {
		t.Errorf("seeds 1 and 2 built the same order")
	}
}

// TestMixOrderHoldsTheWeights checks that every cycle of the replay
// order holds each kind as often as its weight, and that each kind's
// requests keep their schedule order.
func TestMixOrderHoldsTheWeights(t *testing.T) {
	sch, order, err := mixSchedule(3)
	if err != nil {
		t.Fatal(err)
	}
	weights := map[string]int{}
	cycle := 0
	for _, p := range loadgen.SmallMix() {
		weights[p.Kind] = int(p.Weight)
		cycle += int(p.Weight)
	}
	for at := 0; at+cycle <= len(order); at += cycle {
		got := map[string]int{}
		for _, r := range order[at : at+cycle] {
			got[r.Kind]++
		}
		for k, w := range weights {
			if got[k] != w {
				t.Fatalf("cycle at %d holds %d %s requests, want %d", at, got[k], k, w)
			}
		}
	}
	last := map[string]int{}
	for _, r := range order {
		if r.Seq <= last[r.Kind] {
			t.Fatalf("%s request seq %d after seq %d", r.Kind, r.Seq, last[r.Kind])
		}
		last[r.Kind] = r.Seq
	}
	if len(order) < len(sch.Requests)/2 {
		t.Errorf("order keeps %d of %d requests", len(order), len(sch.Requests))
	}
}
