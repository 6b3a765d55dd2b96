package serve

import "encoding/json"

// DecodeBatchReply exposes decodeBatchReply to the external tests.
var DecodeBatchReply = decodeBatchReply

// ReferenceBatchReply is the reference decodeBatchReply is held to: a
// /v1/score.batch reply line decoded by json.Unmarshal into a
// ScoreResponse plus the "error" and "ok" fields, then mapped to a
// BatchResult (an error first, then an ack, then a score).
func ReferenceBatchReply(line []byte) (BatchResult, error) {
	var reply struct {
		ScoreResponse
		Err *string `json:"error"`
		OK  *bool   `json:"ok"`
	}
	if err := json.Unmarshal(line, &reply); err != nil {
		return BatchResult{}, err
	}
	switch {
	case reply.Err != nil:
		return BatchResult{Err: *reply.Err}, nil
	case reply.OK != nil:
		return BatchResult{OK: *reply.OK}, nil
	}
	return BatchResult{Score: &reply.ScoreResponse}, nil
}
