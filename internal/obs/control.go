package obs

import (
	"encoding/json"
	"errors"

	"mds2/internal/ber"
)

// LDAP control OIDs for trace propagation (private-enterprise arc). The
// request control rides on a chained search to a child hop; the spans
// control rides back on the final response of a traced operation.
const (
	// OIDTraceRequest's value is BER: SEQUENCE { traceID OCTET STRING,
	// depth INTEGER }. Non-critical: servers without obs ignore it.
	OIDTraceRequest = "1.3.6.1.4.1.57846.1.1"
	// OIDTraceSpans's value is the JSON TraceExport of the hop's span tree.
	OIDTraceSpans = "1.3.6.1.4.1.57846.1.2"
)

// One-octet BER identifiers of a trace-request value's elements.
const (
	idSequence    = 0x30
	idOctetString = 0x04
	idInteger     = 0x02
)

var errBadTraceRequest = errors.New("obs: bad trace request control")

// EncodeTraceRequest encodes a trace-request control value.
func EncodeTraceRequest(id string, depth int) []byte {
	var b ber.Builder
	b.Begin(ber.ClassUniversal, ber.TagSequence)
	b.OctetString(id)
	b.Int(int64(depth))
	b.End()
	return b.Bytes()
}

// DecodeTraceRequest decodes a trace-request control value.
func DecodeTraceRequest(value []byte) (id string, depth int, err error) {
	tag, seq, rest, err := ber.Element(value)
	if err != nil || tag != idSequence || len(rest) != 0 {
		return "", 0, errBadTraceRequest
	}
	tag, idBytes, seq, err := ber.Element(seq)
	if err != nil || tag != idOctetString {
		return "", 0, errBadTraceRequest
	}
	tag, d, rest, err := ber.Element(seq)
	if err != nil || tag != idInteger || len(rest) != 0 {
		return "", 0, errBadTraceRequest
	}
	n, err := ber.ParseInt64(d)
	if err != nil {
		return "", 0, errBadTraceRequest
	}
	// A copy: the value may view a request frame, and the trace ID outlives
	// the request.
	return string(idBytes), int(n), nil
}

// EncodeSpans encodes a trace-spans control value.
func EncodeSpans(t *TraceExport) []byte {
	b, err := json.Marshal(t)
	if err != nil {
		return nil
	}
	return b
}

// DecodeSpans decodes a trace-spans control value.
func DecodeSpans(value []byte) (*TraceExport, error) {
	var t TraceExport
	if err := json.Unmarshal(value, &t); err != nil {
		return nil, err
	}
	return &t, nil
}
