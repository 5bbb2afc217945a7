package wire

import (
	"testing"

	"protean"
)

// benchFleet is one FleetResult the codec benchmarks frame.
type benchFleet struct {
	name  string
	fleet *protean.FleetResult
}

// benchFleets are the codec benchmarks' sub-benchmarks: sample sets
// every optional field and repeats one pointer; share is the 96-job
// share-group fixture, whose 93 repeated Runs frame as back-references;
// unshare is the same fleet with every Run and Expected its own
// allocation, as a fleet without share groups replies, so nothing
// repeats and every pointee frames in full.
func benchFleets() []benchFleet {
	exp := uint32(7)
	return []benchFleet{
		{"sample", sampleFleet(&exp)},
		{"share", shareFleet()},
		{"unshare", unshare(shareFleet())},
	}
}

// BenchmarkWireEncode measures structural encode throughput for the
// largest frame class the daemon emits — a ResultOK carrying a full
// FleetResult — reporting wire-encode-MB-s for the tracked benchmark
// schema in BENCH_daemon.json. It reuses one Encoder, so it times the
// object walk alone; BenchmarkWireEncodeMessage adds the payload
// allocation every server frame pays.
func BenchmarkWireEncode(b *testing.B) {
	for _, bf := range benchFleets() {
		b.Run(bf.name, func(b *testing.B) {
			var e Encoder
			AppendMessage(&e, 1, ResultOK{Job: 1, Fleet: bf.fleet})
			frame := len(e.Bytes())

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset()
				AppendMessage(&e, uint64(i), ResultOK{Job: 1, Fleet: bf.fleet})
			}
			b.StopTimer()
			mb := float64(frame) * float64(b.N) / (1 << 20)
			b.ReportMetric(mb/b.Elapsed().Seconds(), "wire-encode-MB-s")
		})
	}
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
	for _, bf := range benchFleets() {
		b.Run(bf.name, func(b *testing.B) {
			var m Msg = ResultOK{Job: 1, Fleet: bf.fleet}
			frame := len(EncodeMessage(1, m))

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkPayload = EncodeMessage(uint64(i), m)
			}
			b.StopTimer()
			mb := float64(frame) * float64(b.N) / (1 << 20)
			b.ReportMetric(mb/b.Elapsed().Seconds(), "wire-encode-MB-s")
		})
	}
}

// BenchmarkWireDecode decodes the ResultOK frame the encode benchmarks
// produce, as a client retrieving a result does.
func BenchmarkWireDecode(b *testing.B) {
	for _, bf := range benchFleets() {
		b.Run(bf.name, func(b *testing.B) {
			payload := EncodeMessage(1, ResultOK{Job: 1, Fleet: bf.fleet})

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
		})
	}
}
