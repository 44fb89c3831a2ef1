package fho

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/inet"
	"repro/internal/sim"
)

func addr(n, h uint32) inet.Addr { return inet.Addr{Net: inet.NetID(n), Host: inet.HostID(h)} }

func sampleMessages() []Message {
	return []Message{
		&RtSolPr{MH: addr(1, 7), TargetAP: "ap-nar", BI: &BufferInit{
			Size: 20, Start: 100 * sim.Millisecond, Lifetime: 2 * sim.Second,
		}},
		&RtSolPr{MH: addr(1, 7)}, // no BI
		&PrRtAdv{NAR: addr(2, 1), NARNet: 2, NCoA: addr(2, 7), NARGranted: true, PARGranted: false},
		&PrRtAdv{LinkLayerOnly: true, PARGranted: true},
		&HI{PCoA: addr(1, 7), NCoA: addr(2, 7), MHLinkLayer: "mh-01", PARGranted: true,
			BR: &BufferRequest{Size: 20, Lifetime: 2 * sim.Second}},
		&HI{PCoA: addr(1, 7)},
		&HAck{Accepted: true, PCoA: addr(1, 7), BA: &BufferAck{Granted: true, Size: 20}},
		&HAck{Accepted: false, PCoA: addr(1, 7)},
		&FBU{PCoA: addr(1, 7), NCoA: addr(2, 7)},
		&FBAck{Accepted: true, PCoA: addr(1, 7)},
		&FNA{NCoA: addr(2, 7), PCoA: addr(1, 7), BufferForward: true},
		&BF{PCoA: addr(1, 7)},
		&BufferFull{PCoA: addr(1, 7)},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		data := Encode(m)
		got, err := Decode(data)
		if err != nil {
			t.Errorf("Decode(%s): %v", m.Kind(), err)
			continue
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %s:\n got %+v\nwant %+v", m.Kind(), got, m)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	for _, m := range sampleMessages() {
		data := Encode(m)
		for cut := 0; cut < len(data); cut++ {
			if _, err := Decode(data[:cut]); err == nil {
				t.Errorf("%s truncated to %d bytes decoded without error", m.Kind(), cut)
			}
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	data := append(Encode(&FBU{PCoA: addr(1, 7), NCoA: addr(2, 7)}), 0xFF)
	if _, err := Decode(data); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, err := Decode([]byte{0xEE, 0, 0}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	m := &HI{PCoA: addr(1, 7), NCoA: addr(2, 7), MHLinkLayer: "x",
		BR: &BufferRequest{Size: 5, Lifetime: sim.Second}}
	if !bytes.Equal(Encode(m), Encode(m)) {
		t.Fatal("two encodings differ")
	}
}

func TestWireSizeIncludesHeader(t *testing.T) {
	m := &BF{PCoA: addr(1, 7)}
	if got, want := WireSize(m), ControlHeaderSize+len(Encode(m)); got != want {
		t.Fatalf("WireSize = %d, want %d", got, want)
	}
	if WireSize(m) <= ControlHeaderSize {
		t.Fatal("WireSize not larger than bare header")
	}
}

// TestAppendEncodeSizesEveryKind pins the control sizing the senders use:
// appending into a reused scratch slice yields Encode's bytes, so the
// packet size is ControlHeaderSize+len(Encode(m)) for every message kind,
// and a warm scratch sizes a message without allocating.
func TestAppendEncodeSizesEveryKind(t *testing.T) {
	seen := make(map[Kind]bool)
	scratch := make([]byte, 0, 8)
	for _, m := range sampleMessages() {
		seen[m.Kind()] = true
		scratch = AppendEncode(scratch[:0], m)
		if !bytes.Equal(scratch, Encode(m)) {
			t.Fatalf("%s: AppendEncode = %x, Encode = %x", m.Kind(), scratch, Encode(m))
		}
		if got, want := ControlHeaderSize+len(scratch), ControlHeaderSize+len(Encode(m)); got != want || got != WireSize(m) {
			t.Fatalf("%s: scratch size %d, want %d (WireSize %d)", m.Kind(), got, want, WireSize(m))
		}
		if avg := testing.AllocsPerRun(50, func() { scratch = AppendEncode(scratch[:0], m) }); avg != 0 {
			t.Fatalf("%s: AppendEncode into a warm scratch allocates %.2f times; want 0", m.Kind(), avg)
		}
	}
	for k := KindRtSolPr; k <= KindBufferFull; k++ {
		if !seen[k] {
			t.Errorf("no sample message of kind %s", k)
		}
	}
}

// The selective-delivery report is a trailing extension: report-free FNAs
// must stay byte-identical to the pre-Report wire format, and a
// report-carrying FNA must round-trip.
func TestFNAReportRoundTrip(t *testing.T) {
	plain := &FNA{NCoA: addr(2, 7), PCoA: addr(1, 7), BufferForward: true}
	baseline := Encode(plain)

	with := &FNA{NCoA: addr(2, 7), PCoA: addr(1, 7), BufferForward: true,
		Report: []FlowSeq{{Flow: 3, Ack: 117}, {Flow: 9, Ack: 0}}}
	data := Encode(with)
	if !bytes.Equal(data[:len(baseline)], baseline) {
		t.Fatal("report changed the leading FNA encoding")
	}
	if len(data) != len(baseline)+1+2*8 {
		t.Fatalf("report encoding = %d extra bytes, want %d", len(data)-len(baseline), 1+2*8)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, with) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, with)
	}
	// Mid-report truncations must be rejected.
	for cut := len(baseline) + 1; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("report truncated to %d bytes decoded without error", cut)
		}
	}
}

// Truncating a signed FNA exactly at the report boundary yields a legal
// report-free FNA (the price of a backward-compatible trailing
// extension), but the MAC covers the report, so verification catches it.
func TestFNAReportTruncationFailsMAC(t *testing.T) {
	a := NewAuthenticator([]byte("k"))
	m := &FNA{NCoA: addr(2, 7), PCoA: addr(1, 7), BufferForward: true,
		Report: []FlowSeq{{Flow: 1, Ack: 4}}}
	a.SignFNA(m)
	data := Encode(m)
	cut := len(data) - (1 + 8) // drop the whole report extension
	got, err := Decode(data[:cut])
	if err != nil {
		t.Fatalf("Decode of report-stripped FNA: %v", err)
	}
	stripped := got.(*FNA)
	if len(stripped.Report) != 0 {
		t.Fatalf("stripped FNA still has a report: %+v", stripped.Report)
	}
	if a.VerifyFNA(stripped) {
		t.Fatal("MAC verified after the report was stripped")
	}
	full, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !a.VerifyFNA(full.(*FNA)) {
		t.Fatal("intact signed report FNA failed verification")
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindRtSolPr, KindPrRtAdv, KindHI, KindHAck, KindFBU,
		KindFBAck, KindFNA, KindBF, KindBufferFull}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "Kind(?)" || seen[s] {
			t.Errorf("bad or duplicate Kind string %q", s)
		}
		seen[s] = true
	}
	if Kind(200).String() != "Kind(?)" {
		t.Error("unknown kind string")
	}
}

func TestBufferInitCancelled(t *testing.T) {
	if !(BufferInit{Size: 10}).Cancelled() {
		t.Fatal("zero start+lifetime should read as cancellation")
	}
	if (BufferInit{Start: 1}).Cancelled() || (BufferInit{Lifetime: 1}).Cancelled() {
		t.Fatal("non-zero timing misread as cancellation")
	}
}

func TestLongTargetAPTruncatedOnWire(t *testing.T) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'a'
	}
	m := &RtSolPr{MH: addr(1, 1), TargetAP: string(long)}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.(*RtSolPr).TargetAP) != 255 {
		t.Fatalf("TargetAP length = %d, want 255", len(got.(*RtSolPr).TargetAP))
	}
}

// Property: RtSolPr round-trips for arbitrary field values.
func TestPropertyRtSolPrRoundTrip(t *testing.T) {
	f := func(n, h uint32, ap string, hasBI bool, size uint16, start, life int64) bool {
		if len(ap) > 255 {
			ap = ap[:255]
		}
		m := &RtSolPr{MH: addr(n, h), TargetAP: ap}
		if hasBI {
			m.BI = &BufferInit{Size: size, Start: sim.Time(start), Lifetime: sim.Time(life)}
		}
		got, err := Decode(Encode(m))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: HAck round-trips for arbitrary field values.
func TestPropertyHAckRoundTrip(t *testing.T) {
	f := func(accepted bool, n, h uint32, hasBA, granted bool, size uint16) bool {
		m := &HAck{Accepted: accepted, PCoA: addr(n, h)}
		if hasBA {
			m.BA = &BufferAck{Granted: granted, Size: size}
		}
		got, err := Decode(Encode(m))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary junk never panics.
func TestPropertyDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Error("Decode panicked")
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
