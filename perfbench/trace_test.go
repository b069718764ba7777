package main

import (
	"testing"
	"time"
)

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming(`decode;dur=0.250, queue_wait;desc="q";dur=1.5,execute;dur=2,bad;dur=x, nodur, ;dur=1`)
	want := []stage{
		{"decode", 250 * time.Microsecond},
		{"queue_wait", 1500 * time.Microsecond},
		{"execute", 2 * time.Millisecond},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	if len(parseServerTiming("")) != 0 {
		t.Fatal("empty header parsed to stages")
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(50)},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: at(90), End: at(120)}, // clipped at the root's end
		{ID: 5, Parent: 2, Name: "a1", Start: at(10), End: at(20)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 50 * time.Millisecond, // 100 - [10,50) - [90,100)
		2: 20 * time.Millisecond,
		3: 20 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 10 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}
