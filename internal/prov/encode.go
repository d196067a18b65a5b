package prov

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file defines the three wire encodings of provenance records:
//
//   - the S3 metadata form (architecture 1): records flattened into the
//     object's user-metadata key/value map, subject to the 2 KB limit;
//   - the SimpleDB form (architectures 2 and 3): one item per object
//     version, one attribute-value pair per record (paper §4.2 example:
//     ItemName=foo_2; input=bar:2; type=file);
//   - the JSON form: used for WAL messages (architecture 3), which must be
//     valid Unicode within SQS's 8 KB message limit.
//
// Every encoding round-trips: Decode(Encode(records)) == records up to
// record order within a subject.

// --- S3 metadata form -------------------------------------------------------

// s3KeyPrefix namespaces provenance entries in S3 user metadata.
const s3KeyPrefix = "p-"

// s3FieldSep separates attribute name from value inside one metadata value.
// Unit separator cannot appear in attribute names.
const s3FieldSep = "\x1f"

// EncodeS3Metadata renders records about a single subject as S3 user
// metadata: key "p-<n>", value "<attr>\x1f<value>". The subject itself is
// implied by the object the metadata is stored on, matching the paper's
// design where provenance rides on the object's own PUT.
func EncodeS3Metadata(records []Record) map[string]string {
	out := make(map[string]string, len(records))
	for i, r := range records {
		out[s3MetaKey(i)] = r.Attr + s3FieldSep + r.Value.String()
	}
	return out
}

func s3MetaKey(i int) string { return s3KeyPrefix + strconv.Itoa(i) }

// DecodeS3Metadata reverses EncodeS3Metadata for the given subject. Unknown
// (non provenance-prefixed) keys are ignored so protocol metadata (nonces,
// overflow pointers) can share the map.
func DecodeS3Metadata(subject Ref, meta map[string]string) ([]Record, error) {
	// Collect in key order for determinism.
	keys := make([]string, 0, len(meta))
	for k := range meta {
		if strings.HasPrefix(k, s3KeyPrefix) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		// Numeric ordering of the suffix, so p-10 follows p-9.
		a, _ := strconv.Atoi(strings.TrimPrefix(keys[i], s3KeyPrefix))
		b, _ := strconv.Atoi(strings.TrimPrefix(keys[j], s3KeyPrefix))
		return a < b
	})
	out := make([]Record, 0, len(keys))
	for _, k := range keys {
		rec, err := decodeS3Value(subject, meta[k])
		if err != nil {
			return nil, fmt.Errorf("%w: key %q: %w", ErrMalformed, k, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

func decodeS3Value(subject Ref, v string) (Record, error) {
	i := strings.Index(v, s3FieldSep)
	if i < 0 {
		return Record{}, fmt.Errorf("missing field separator")
	}
	attr, raw := v[:i], v[i+len(s3FieldSep):]
	if attr == "" {
		return Record{}, fmt.Errorf("empty attribute")
	}
	return decodeRaw(subject, attr, raw)
}

func decodeRaw(subject Ref, attr, raw string) (Record, error) {
	if IsRefAttr(attr) {
		ref, err := ParseRef(raw)
		if err != nil {
			return Record{}, err
		}
		return Record{Subject: subject, Attr: attr, Value: RefValue(ref)}, nil
	}
	return Record{Subject: subject, Attr: attr, Value: StringValue(raw)}, nil
}

// S3MetadataSize is the byte size S3 charges for the encoded metadata: the
// sum of key and value lengths. Architecture 1 compares this against the
// 2 KB limit to decide what spills.
func S3MetadataSize(meta map[string]string) int {
	n := 0
	for k, v := range meta {
		n += len(k) + len(v)
	}
	return n
}

// --- SimpleDB form ----------------------------------------------------------

// itemNameSep joins object name and version in SimpleDB item names. The
// paper's example uses foo_2.
const itemNameSep = "_"

// EncodeItemName renders the SimpleDB item name for a subject: the
// "concatenation of the object name and the version" (§4.2).
func EncodeItemName(subject Ref) string {
	return string(subject.Object) + itemNameSep + strconv.Itoa(int(subject.Version))
}

// ParseItemName reverses EncodeItemName. The version is the digits after
// the final underscore, so object names may contain underscores. Only the
// canonical form parses: a name EncodeItemName would not produce (a
// leading zero or sign, as in f_07 or f_+7) is malformed, so an item
// planted under such a name can never alias a genuine subject.
func ParseItemName(item string) (Ref, error) {
	i := strings.LastIndex(item, itemNameSep)
	if i <= 0 || i == len(item)-1 {
		return Ref{}, fmt.Errorf("%w: item name %q", ErrMalformed, item)
	}
	v, err := strconv.Atoi(item[i+1:])
	if err != nil || v < 0 {
		return Ref{}, fmt.Errorf("%w: item name version %q", ErrMalformed, item)
	}
	ref := Ref{Object: ObjectID(item[:i]), Version: Version(v)}
	if EncodeItemName(ref) != item {
		return Ref{}, fmt.Errorf("%w: non-canonical item name %q", ErrMalformed, item)
	}
	return ref, nil
}

// SDBAttr is an attribute-value pair destined for SimpleDB. It mirrors
// sdb.Attr without importing the service package: prov stays a pure model.
type SDBAttr struct {
	Name  string
	Value string
}

// EncodeSDBAttrs renders a subject's records as SimpleDB attributes, one
// pair per record. Repeated attributes (several inputs) become multiple
// pairs with the same name, which SimpleDB's data model supports directly.
func EncodeSDBAttrs(records []Record) []SDBAttr {
	out := make([]SDBAttr, 0, len(records))
	for _, r := range records {
		out = append(out, SDBAttr{Name: r.Attr, Value: r.Value.String()})
	}
	return out
}

// DecodeSDBAttrs reverses EncodeSDBAttrs for a subject, skipping attribute
// names in ignore (protocol bookkeeping such as md5/nonce records).
func DecodeSDBAttrs(subject Ref, attrs []SDBAttr, ignore map[string]bool) ([]Record, error) {
	out := make([]Record, 0, len(attrs))
	for _, a := range attrs {
		if ignore[a.Name] {
			continue
		}
		rec, err := decodeRaw(subject, a.Name, a.Value)
		if err != nil {
			return nil, fmt.Errorf("%w: attr %q: %w", ErrMalformed, a.Name, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// --- JSON form (WAL messages) ----------------------------------------------

// jsonRecord is the stable wire schema for one record.
type jsonRecord struct {
	Subject string `json:"s"`
	Attr    string `json:"a"`
	Ref     string `json:"r,omitempty"`
	Str     string `json:"v,omitempty"`
	IsStr   bool   `json:"t,omitempty"` // distinguishes empty string values
}

// MarshalJSONRecords encodes records as a JSON array — always valid UTF-8,
// as SQS requires.
func MarshalJSONRecords(records []Record) ([]byte, error) {
	out := make([]jsonRecord, len(records))
	for i, r := range records {
		out[i] = toJSONRecord(r)
	}
	return json.Marshal(out)
}

func toJSONRecord(r Record) jsonRecord {
	j := jsonRecord{Subject: r.Subject.String(), Attr: r.Attr}
	if r.Value.Kind == KindRef {
		j.Ref = r.Value.Ref.String()
	} else {
		j.Str = r.Value.Str
		j.IsStr = true
	}
	return j
}

// UnmarshalJSONRecords reverses MarshalJSONRecords.
func UnmarshalJSONRecords(data []byte) ([]Record, error) {
	var raw []jsonRecord
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	out := make([]Record, len(raw))
	for i, j := range raw {
		rec, err := fromJSONRecord(j)
		if err != nil {
			return nil, err
		}
		out[i] = rec
	}
	return out, nil
}

func fromJSONRecord(j jsonRecord) (Record, error) {
	subject, err := ParseRef(j.Subject)
	if err != nil {
		return Record{}, fmt.Errorf("%w: subject: %w", ErrMalformed, err)
	}
	if j.Attr == "" {
		return Record{}, fmt.Errorf("%w: empty attribute", ErrMalformed)
	}
	if j.IsStr {
		return Record{Subject: subject, Attr: j.Attr, Value: StringValue(j.Str)}, nil
	}
	ref, err := ParseRef(j.Ref)
	if err != nil {
		return Record{}, fmt.Errorf("%w: ref value: %w", ErrMalformed, err)
	}
	return Record{Subject: subject, Attr: j.Attr, Value: RefValue(ref)}, nil
}

// ChunkJSON packs records into JSON arrays of at most budget bytes each,
// preserving order across chunks. A single record whose encoding exceeds the
// budget is returned as its own oversized chunk; the caller (the WAL layer)
// must divert such records, exactly as the paper diverts >1 KB values to S3.
//
// The packing is exact: a JSON array is "[" + elements joined by "," + "]",
// so each record is marshaled once and sizes accumulate linearly.
func ChunkJSON(records []Record, budget int) ([][]byte, error) {
	if len(records) == 0 {
		return nil, nil
	}
	var chunks [][]byte
	var cur [][]byte
	curSize := 2 // "[" and "]"

	flush := func() {
		if len(cur) == 0 {
			return
		}
		buf := make([]byte, 0, curSize)
		buf = append(buf, '[')
		for i, enc := range cur {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, enc...)
		}
		buf = append(buf, ']')
		chunks = append(chunks, buf)
		cur, curSize = cur[:0], 2
	}

	for _, r := range records {
		enc, err := json.Marshal(toJSONRecord(r))
		if err != nil {
			return nil, err
		}
		extra := len(enc)
		if len(cur) > 0 {
			extra++ // comma
		}
		if len(cur) > 0 && curSize+extra > budget {
			flush()
			extra = len(enc)
		}
		cur = append(cur, enc)
		curSize += extra
	}
	flush()
	return chunks, nil
}
