package netem

import (
	"math/rand"
	"testing"
	"time"
)

func BenchmarkMediumTransmit(b *testing.B) {
	m, err := NewMedium(MediumConfig{MCS: MCS8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	now := t0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		done, err := m.Transmit("v", ReportBytes, now)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}

func BenchmarkHTBReserve(b *testing.B) {
	h, err := NewHTB(DSRCBandwidthBps, t0)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.AddClass("v", PerVehicleFloorBps, 0); err != nil {
		b.Fatal(err)
	}
	now := t0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Reserve("v", ReportBytes, now); err != nil {
			b.Fatal(err)
		}
		now = now.Add(100 * time.Millisecond)
	}
}

func BenchmarkSimulatorEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSimulator(t0)
		for j := 0; j < 1000; j++ {
			s.After(time.Duration(j)*time.Microsecond, func() {})
		}
		if n := s.Run(); n != 1000 {
			b.Fatalf("ran %d events", n)
		}
	}
}

// BenchmarkSimulatorHold is the classic hold model of an event queue
// under load: 200k pending events, and each event fired schedules one
// more at an exponentially distributed offset. A city run keeps its
// queue near this size (a few pending events per vehicle), where
// BenchmarkSimulatorEvents measures an almost empty queue. One op is one
// fire plus one schedule.
func BenchmarkSimulatorHold(b *testing.B) {
	const pending = 200_000
	rng := rand.New(rand.NewSource(1))
	gaps := make([]time.Duration, 1<<16)
	for i := range gaps {
		gaps[i] = time.Duration(rng.ExpFloat64() * float64(time.Second))
	}
	s := NewSimulator(t0)
	var k int
	var hold func()
	hold = func() {
		s.After(gaps[k&(len(gaps)-1)], hold)
		k++
	}
	for i := 0; i < pending; i++ {
		hold()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMACAccessTimeEval(b *testing.B) {
	m := MACModel{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.AccessTime(256, ReportBytes, MCS8); err != nil {
			b.Fatal(err)
		}
	}
}
