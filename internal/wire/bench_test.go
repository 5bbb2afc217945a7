package wire

import (
	"testing"
)

// BenchmarkWireEncode measures structural encode throughput for the
// largest frame class the daemon emits — a ResultOK carrying a full
// FleetResult — reporting wire-encode-MB-s for the tracked benchmark
// schema in BENCH_daemon.json. It reuses one Encoder, so it times the
// object walk alone; BenchmarkWireEncodeMessage adds the payload
// allocation every server frame pays.
func BenchmarkWireEncode(b *testing.B) {
	exp := uint32(7)
	fleet := sampleFleet(&exp)
	var e Encoder
	AppendMessage(&e, 1, ResultOK{Job: 1, Fleet: fleet})
	frame := len(e.Bytes())

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		AppendMessage(&e, uint64(i), ResultOK{Job: 1, Fleet: fleet})
	}
	b.StopTimer()
	mb := float64(frame) * float64(b.N) / (1 << 20)
	b.ReportMetric(mb/b.Elapsed().Seconds(), "wire-encode-MB-s")
}

// sinkPayload keeps the benchmarked encodes and decodes live.
var (
	sinkPayload []byte
	sinkMsg     Msg
)

// BenchmarkWireEncodeMessage encodes the same ResultOK as
// BenchmarkWireEncode into a fresh payload per frame, as the server's
// reply and event paths do (EncodeMessage, then the write queue).
func BenchmarkWireEncodeMessage(b *testing.B) {
	exp := uint32(7)
	var m Msg = ResultOK{Job: 1, Fleet: sampleFleet(&exp)}
	frame := len(EncodeMessage(1, m))

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPayload = EncodeMessage(uint64(i), m)
	}
	b.StopTimer()
	mb := float64(frame) * float64(b.N) / (1 << 20)
	b.ReportMetric(mb/b.Elapsed().Seconds(), "wire-encode-MB-s")
}

// BenchmarkWireDecode decodes the ResultOK frame the encode benchmarks
// produce, as a client retrieving a result does.
func BenchmarkWireDecode(b *testing.B) {
	exp := uint32(7)
	payload := EncodeMessage(1, ResultOK{Job: 1, Fleet: sampleFleet(&exp)})

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, m, err := DecodeMessage(payload)
		if err != nil {
			b.Fatal(err)
		}
		sinkMsg = m
	}
	b.StopTimer()
	mb := float64(len(payload)) * float64(b.N) / (1 << 20)
	b.ReportMetric(mb/b.Elapsed().Seconds(), "wire-decode-MB-s")
}
