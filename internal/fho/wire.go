package fho

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/inet"
	"repro/internal/sim"
)

// Wire format: one kind byte followed by the message body. Multi-byte
// integers are big-endian. Addresses are net(4)+host(4). Times are signed
// 64-bit nanosecond counts. Strings are length-prefixed (1 byte). Optional
// options are preceded by a presence byte.

// ErrTruncated reports a message body shorter than its fields require.
var ErrTruncated = errors.New("fho: truncated message")

// ControlHeaderSize approximates the IPv6 + mobility-header overhead of a
// control packet, used when sizing control packets on the wire.
const ControlHeaderSize = 48

// Encode serializes a message (kind byte + body).
func Encode(m Message) []byte { return AppendEncode(nil, m) }

// AppendEncode appends the encoding of m to dst and returns the extended
// slice. A sender that reuses dst sizes its control packets without
// allocating.
func AppendEncode(dst []byte, m Message) []byte {
	return m.appendTo(append(dst, byte(m.Kind())))
}

// Decode parses a message produced by Encode.
func Decode(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	var m Message
	switch Kind(data[0]) {
	case KindRtSolPr:
		m = &RtSolPr{}
	case KindPrRtAdv:
		m = &PrRtAdv{}
	case KindHI:
		m = &HI{}
	case KindHAck:
		m = &HAck{}
	case KindFBU:
		m = &FBU{}
	case KindFBAck:
		m = &FBAck{}
	case KindFNA:
		m = &FNA{}
	case KindBF:
		m = &BF{}
	case KindBufferFull:
		m = &BufferFull{}
	default:
		return nil, fmt.Errorf("fho: unknown message kind %d", data[0])
	}
	rest, err := m.decode(data[1:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("fho: %d trailing bytes after %s", len(rest), m.Kind())
	}
	return m, nil
}

// WireSize returns the on-the-wire packet size for a control message,
// including the network-layer control header.
func WireSize(m Message) int { return ControlHeaderSize + len(Encode(m)) }

// --- primitive field helpers ---

func putAddr(dst []byte, a inet.Addr) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.Net))
	return binary.BigEndian.AppendUint32(dst, uint32(a.Host))
}

func getAddr(src []byte) (inet.Addr, []byte, error) {
	if len(src) < 8 {
		return inet.Addr{}, nil, ErrTruncated
	}
	a := inet.Addr{
		Net:  inet.NetID(binary.BigEndian.Uint32(src)),
		Host: inet.HostID(binary.BigEndian.Uint32(src[4:])),
	}
	return a, src[8:], nil
}

func putTime(dst []byte, t sim.Time) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(t))
}

func getTime(src []byte) (sim.Time, []byte, error) {
	if len(src) < 8 {
		return 0, nil, ErrTruncated
	}
	return sim.Time(binary.BigEndian.Uint64(src)), src[8:], nil
}

func putU16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }

func getU16(src []byte) (uint16, []byte, error) {
	if len(src) < 2 {
		return 0, nil, ErrTruncated
	}
	return binary.BigEndian.Uint16(src), src[2:], nil
}

func putU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }

func getU32(src []byte) (uint32, []byte, error) {
	if len(src) < 4 {
		return 0, nil, ErrTruncated
	}
	return binary.BigEndian.Uint32(src), src[4:], nil
}

func putBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func getBool(src []byte) (bool, []byte, error) {
	if len(src) < 1 {
		return false, nil, ErrTruncated
	}
	return src[0] != 0, src[1:], nil
}

func putString(dst []byte, s string) []byte {
	if len(s) > 255 {
		s = s[:255]
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

func getString(src []byte) (string, []byte, error) {
	if len(src) < 1 {
		return "", nil, ErrTruncated
	}
	n := int(src[0])
	if len(src) < 1+n {
		return "", nil, ErrTruncated
	}
	return string(src[1 : 1+n]), src[1+n:], nil
}

func putBytes(dst []byte, b []byte) []byte {
	if len(b) > 255 {
		b = b[:255]
	}
	dst = append(dst, byte(len(b)))
	return append(dst, b...)
}

func getBytes(src []byte) ([]byte, []byte, error) {
	if len(src) < 1 {
		return nil, nil, ErrTruncated
	}
	n := int(src[0])
	if len(src) < 1+n {
		return nil, nil, ErrTruncated
	}
	if n == 0 {
		return nil, src[1:], nil
	}
	out := make([]byte, n)
	copy(out, src[1:1+n])
	return out, src[1+n:], nil
}

// --- options ---

func putBufferInit(dst []byte, bi *BufferInit) []byte {
	dst = putBool(dst, bi != nil)
	if bi == nil {
		return dst
	}
	dst = putU16(dst, bi.Size)
	dst = putTime(dst, bi.Start)
	return putTime(dst, bi.Lifetime)
}

func getBufferInit(src []byte) (*BufferInit, []byte, error) {
	present, src, err := getBool(src)
	if err != nil || !present {
		return nil, src, err
	}
	var bi BufferInit
	if bi.Size, src, err = getU16(src); err != nil {
		return nil, nil, err
	}
	if bi.Start, src, err = getTime(src); err != nil {
		return nil, nil, err
	}
	if bi.Lifetime, src, err = getTime(src); err != nil {
		return nil, nil, err
	}
	return &bi, src, nil
}

func putBufferRequest(dst []byte, br *BufferRequest) []byte {
	dst = putBool(dst, br != nil)
	if br == nil {
		return dst
	}
	dst = putU16(dst, br.Size)
	return putTime(dst, br.Lifetime)
}

func getBufferRequest(src []byte) (*BufferRequest, []byte, error) {
	present, src, err := getBool(src)
	if err != nil || !present {
		return nil, src, err
	}
	var br BufferRequest
	if br.Size, src, err = getU16(src); err != nil {
		return nil, nil, err
	}
	if br.Lifetime, src, err = getTime(src); err != nil {
		return nil, nil, err
	}
	return &br, src, nil
}

func putBufferAck(dst []byte, ba *BufferAck) []byte {
	dst = putBool(dst, ba != nil)
	if ba == nil {
		return dst
	}
	dst = putBool(dst, ba.Granted)
	return putU16(dst, ba.Size)
}

func getBufferAck(src []byte) (*BufferAck, []byte, error) {
	present, src, err := getBool(src)
	if err != nil || !present {
		return nil, src, err
	}
	var ba BufferAck
	if ba.Granted, src, err = getBool(src); err != nil {
		return nil, nil, err
	}
	if ba.Size, src, err = getU16(src); err != nil {
		return nil, nil, err
	}
	return &ba, src, nil
}

// --- message bodies ---

func (m *RtSolPr) appendTo(dst []byte) []byte {
	dst = putAddr(dst, m.MH)
	dst = putString(dst, m.TargetAP)
	dst = putBufferInit(dst, m.BI)
	return putBytes(dst, m.MAC)
}

func (m *RtSolPr) decode(src []byte) ([]byte, error) {
	var err error
	if m.MH, src, err = getAddr(src); err != nil {
		return nil, err
	}
	if m.TargetAP, src, err = getString(src); err != nil {
		return nil, err
	}
	if m.BI, src, err = getBufferInit(src); err != nil {
		return nil, err
	}
	if m.MAC, src, err = getBytes(src); err != nil {
		return nil, err
	}
	return src, nil
}

func (m *PrRtAdv) appendTo(dst []byte) []byte {
	dst = putAddr(dst, m.NAR)
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.NARNet))
	dst = putAddr(dst, m.NCoA)
	dst = putBool(dst, m.NARGranted)
	dst = putBool(dst, m.PARGranted)
	dst = putBool(dst, m.LinkLayerOnly)
	return putString(dst, m.TargetAP)
}

func (m *PrRtAdv) decode(src []byte) ([]byte, error) {
	var err error
	if m.NAR, src, err = getAddr(src); err != nil {
		return nil, err
	}
	if len(src) < 4 {
		return nil, ErrTruncated
	}
	m.NARNet = inet.NetID(binary.BigEndian.Uint32(src))
	src = src[4:]
	if m.NCoA, src, err = getAddr(src); err != nil {
		return nil, err
	}
	if m.NARGranted, src, err = getBool(src); err != nil {
		return nil, err
	}
	if m.PARGranted, src, err = getBool(src); err != nil {
		return nil, err
	}
	if m.LinkLayerOnly, src, err = getBool(src); err != nil {
		return nil, err
	}
	if m.TargetAP, src, err = getString(src); err != nil {
		return nil, err
	}
	return src, nil
}

func (m *HI) appendTo(dst []byte) []byte {
	dst = putAddr(dst, m.PCoA)
	dst = putAddr(dst, m.NCoA)
	dst = putString(dst, m.MHLinkLayer)
	dst = putBool(dst, m.PARGranted)
	dst = putBufferRequest(dst, m.BR)
	return putBytes(dst, m.MAC)
}

func (m *HI) decode(src []byte) ([]byte, error) {
	var err error
	if m.PCoA, src, err = getAddr(src); err != nil {
		return nil, err
	}
	if m.NCoA, src, err = getAddr(src); err != nil {
		return nil, err
	}
	if m.MHLinkLayer, src, err = getString(src); err != nil {
		return nil, err
	}
	if m.PARGranted, src, err = getBool(src); err != nil {
		return nil, err
	}
	if m.BR, src, err = getBufferRequest(src); err != nil {
		return nil, err
	}
	if m.MAC, src, err = getBytes(src); err != nil {
		return nil, err
	}
	return src, nil
}

func (m *HAck) appendTo(dst []byte) []byte {
	dst = putBool(dst, m.Accepted)
	dst = putAddr(dst, m.PCoA)
	return putBufferAck(dst, m.BA)
}

func (m *HAck) decode(src []byte) ([]byte, error) {
	var err error
	if m.Accepted, src, err = getBool(src); err != nil {
		return nil, err
	}
	if m.PCoA, src, err = getAddr(src); err != nil {
		return nil, err
	}
	if m.BA, src, err = getBufferAck(src); err != nil {
		return nil, err
	}
	return src, nil
}

func (m *FBU) appendTo(dst []byte) []byte {
	dst = putAddr(dst, m.PCoA)
	dst = putAddr(dst, m.NCoA)
	return putBytes(dst, m.MAC)
}

func (m *FBU) decode(src []byte) ([]byte, error) {
	var err error
	if m.PCoA, src, err = getAddr(src); err != nil {
		return nil, err
	}
	if m.NCoA, src, err = getAddr(src); err != nil {
		return nil, err
	}
	if m.MAC, src, err = getBytes(src); err != nil {
		return nil, err
	}
	return src, nil
}

func (m *FBAck) appendTo(dst []byte) []byte {
	dst = putBool(dst, m.Accepted)
	return putAddr(dst, m.PCoA)
}

func (m *FBAck) decode(src []byte) ([]byte, error) {
	var err error
	if m.Accepted, src, err = getBool(src); err != nil {
		return nil, err
	}
	if m.PCoA, src, err = getAddr(src); err != nil {
		return nil, err
	}
	return src, nil
}

func (m *FNA) appendTo(dst []byte) []byte {
	dst = putAddr(dst, m.NCoA)
	dst = putAddr(dst, m.PCoA)
	dst = putBool(dst, m.BufferForward)
	dst = putBytes(dst, m.MAC)
	// The selective-delivery report is a trailing extension encoded only
	// when present, so report-free FNAs keep the pre-SafetyNet wire size.
	if len(m.Report) > 0 {
		n := len(m.Report)
		if n > 255 {
			n = 255
		}
		dst = append(dst, byte(n))
		for _, e := range m.Report[:n] {
			dst = putU32(dst, e.Flow)
			dst = putU32(dst, e.Ack)
		}
	}
	return dst
}

func (m *FNA) decode(src []byte) ([]byte, error) {
	var err error
	if m.NCoA, src, err = getAddr(src); err != nil {
		return nil, err
	}
	if m.PCoA, src, err = getAddr(src); err != nil {
		return nil, err
	}
	if m.BufferForward, src, err = getBool(src); err != nil {
		return nil, err
	}
	if m.MAC, src, err = getBytes(src); err != nil {
		return nil, err
	}
	m.Report = nil
	if len(src) > 0 {
		n := int(src[0])
		src = src[1:]
		m.Report = make([]FlowSeq, 0, n)
		for i := 0; i < n; i++ {
			var e FlowSeq
			if e.Flow, src, err = getU32(src); err != nil {
				return nil, err
			}
			if e.Ack, src, err = getU32(src); err != nil {
				return nil, err
			}
			m.Report = append(m.Report, e)
		}
	}
	return src, nil
}

func (m *BF) appendTo(dst []byte) []byte { return putAddr(dst, m.PCoA) }

func (m *BF) decode(src []byte) ([]byte, error) {
	var err error
	if m.PCoA, src, err = getAddr(src); err != nil {
		return nil, err
	}
	return src, nil
}

func (m *BufferFull) appendTo(dst []byte) []byte { return putAddr(dst, m.PCoA) }

func (m *BufferFull) decode(src []byte) ([]byte, error) {
	var err error
	if m.PCoA, src, err = getAddr(src); err != nil {
		return nil, err
	}
	return src, nil
}
