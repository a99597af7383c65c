package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/engine"
)

// Value tags. Tags 1–29 are the engine protocol (fixed encoders — the
// hot path) and 30–49 plain Go values a job payload commonly is; a
// value of any other type is an encode error. Wire format: append-only.
const (
	vNil byte = iota
	vJob
	vMsgRegister
	vMsgRegisterAck
	vMsgBidRequest
	vMsgBid
	vMsgAssign
	vMsgOffer
	vMsgAccept
	vMsgReject
	vMsgRequestJob
	vMsgNoWork
	vMsgCacheEvict
	vMsgJobDone
	vMsgEmit
	vMsgStop
	vMsgDrain
	vMsgLeave
	vMsgWorkerDead

	vString byte = iota + 11 // 30
	vInt
	vInt64
	vFloat64
	vBool
	vBytes
	vStringSlice
	vDuration

	// vGob is retired: it tagged an embedded gob blob for application
	// types. The tag stays reserved so it is never reassigned, and the
	// decoder refuses it — bytes from a peer never reach gob.Decode.
	vGob byte = 255
)

// appendValue appends one tagged payload value.
func appendValue(dst []byte, v any, depth int) ([]byte, error) {
	if depth > maxValueDepth {
		return dst, fmt.Errorf("wire: value nesting exceeds %d levels", maxValueDepth)
	}
	var err error
	switch x := v.(type) {
	case nil:
		dst = append(dst, vNil)
	case *engine.Job:
		dst = append(dst, vJob)
		dst, err = appendJob(dst, x, depth+1)
	case engine.MsgRegister:
		dst = append(dst, vMsgRegister)
		dst = appendString(dst, x.Worker)
	case engine.MsgRegisterAck:
		dst = append(dst, vMsgRegisterAck)
	case engine.MsgBidRequest:
		dst = append(dst, vMsgBidRequest)
		dst, err = appendJob(dst, x.Job, depth+1)
	case engine.MsgBid:
		dst = append(dst, vMsgBid)
		dst = appendString(dst, x.JobID)
		dst = appendString(dst, x.Worker)
		dst = binary.AppendVarint(dst, int64(x.Estimate))
		dst = binary.AppendVarint(dst, int64(x.JobCost))
		dst = appendBool(dst, x.Local)
	case engine.MsgAssign:
		dst = append(dst, vMsgAssign)
		if dst, err = appendJob(dst, x.Job, depth+1); err != nil {
			return dst, err
		}
		dst = binary.AppendVarint(dst, int64(x.EstimatedCost))
	case engine.MsgOffer:
		dst = append(dst, vMsgOffer)
		dst, err = appendJob(dst, x.Job, depth+1)
	case engine.MsgAccept:
		dst = append(dst, vMsgAccept)
		dst = appendString(dst, x.JobID)
		dst = appendString(dst, x.Worker)
	case engine.MsgReject:
		dst = append(dst, vMsgReject)
		dst = appendString(dst, x.JobID)
		dst = appendString(dst, x.Worker)
	case engine.MsgRequestJob:
		dst = append(dst, vMsgRequestJob)
		dst = appendString(dst, x.Worker)
		dst = appendStringSlice(dst, x.CachedKeys)
		dst = binary.AppendVarint(dst, int64(x.Strikes))
	case engine.MsgNoWork:
		dst = append(dst, vMsgNoWork)
		dst = binary.AppendVarint(dst, int64(x.Backoff))
	case engine.MsgCacheEvict:
		dst = append(dst, vMsgCacheEvict)
		dst = appendString(dst, x.Worker)
		dst = appendStringSlice(dst, x.Keys)
	case engine.MsgJobDone:
		dst = append(dst, vMsgJobDone)
		dst = appendString(dst, x.JobID)
		dst = appendString(dst, x.Worker)
		dst = binary.AppendUvarint(dst, uint64(len(x.NewJobs)))
		for _, j := range x.NewJobs {
			if dst, err = appendJob(dst, j, depth+1); err != nil {
				return dst, err
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(x.Results)))
		for _, res := range x.Results {
			if dst, err = appendValue(dst, res, depth+1); err != nil {
				return dst, err
			}
		}
		dst = appendBool(dst, x.Failed)
		dst = appendString(dst, x.Error)
	case engine.MsgEmit:
		dst = append(dst, vMsgEmit)
		if dst, err = appendJob(dst, x.Job, depth+1); err != nil {
			return dst, err
		}
		dst = appendString(dst, x.Worker)
	case engine.MsgStop:
		dst = append(dst, vMsgStop)
	case engine.MsgDrain:
		dst = append(dst, vMsgDrain)
	case engine.MsgLeave:
		dst = append(dst, vMsgLeave)
		dst = appendString(dst, x.Worker)
	case engine.MsgWorkerDead:
		dst = append(dst, vMsgWorkerDead)
		dst = appendString(dst, x.Worker)
	case string:
		dst = append(dst, vString)
		dst = appendString(dst, x)
	case int:
		dst = append(dst, vInt)
		dst = binary.AppendVarint(dst, int64(x))
	case int64:
		dst = append(dst, vInt64)
		dst = binary.AppendVarint(dst, x)
	case float64:
		dst = append(dst, vFloat64)
		dst = appendFloat(dst, x)
	case bool:
		dst = append(dst, vBool)
		dst = appendBool(dst, x)
	case []byte:
		dst = append(dst, vBytes)
		dst = appendBytes(dst, x)
	case []string:
		dst = append(dst, vStringSlice)
		dst = appendStringSlice(dst, x)
	case time.Duration:
		dst = append(dst, vDuration)
		dst = binary.AppendVarint(dst, int64(x))
	default:
		err = fmt.Errorf("wire: no encoder for payload type %T", v)
	}
	return dst, err
}

func appendStringSlice(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

// appendJob encodes a job pointer, nil included (a bid request for a
// job can in principle carry none).
func appendJob(dst []byte, j *engine.Job, depth int) ([]byte, error) {
	if depth > maxValueDepth {
		return dst, fmt.Errorf("wire: value nesting exceeds %d levels", maxValueDepth)
	}
	if j == nil {
		return append(dst, 0), nil
	}
	dst = append(dst, 1)
	dst = appendString(dst, j.ID)
	dst = appendString(dst, j.Stream)
	dst = appendString(dst, j.DataKey)
	dst = appendFloat(dst, j.DataSizeMB)
	dst = appendFloat(dst, j.ComputeMB)
	dst = binary.AppendVarint(dst, int64(j.CostHint))
	dst = appendString(dst, j.Session)
	return appendValue(dst, j.Payload, depth+1)
}

// value decodes one tagged payload value.
func (r *reader) value(depth int) (any, error) {
	if depth > maxValueDepth {
		return nil, fmt.Errorf("wire: value nesting exceeds %d levels", maxValueDepth)
	}
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case vNil:
		return nil, nil
	case vJob:
		return r.job(depth + 1)
	case vMsgRegister:
		worker, err := r.str()
		return engine.MsgRegister{Worker: worker}, err
	case vMsgRegisterAck:
		return engine.MsgRegisterAck{}, nil
	case vMsgBidRequest:
		job, err := r.job(depth + 1)
		return engine.MsgBidRequest{Job: job}, err
	case vMsgBid:
		var m engine.MsgBid
		if m.JobID, err = r.str(); err != nil {
			return nil, err
		}
		if m.Worker, err = r.str(); err != nil {
			return nil, err
		}
		if m.Estimate, err = r.duration(); err != nil {
			return nil, err
		}
		if m.JobCost, err = r.duration(); err != nil {
			return nil, err
		}
		if m.Local, err = r.bool(); err != nil {
			return nil, err
		}
		return m, nil
	case vMsgAssign:
		var m engine.MsgAssign
		if m.Job, err = r.job(depth + 1); err != nil {
			return nil, err
		}
		if m.EstimatedCost, err = r.duration(); err != nil {
			return nil, err
		}
		return m, nil
	case vMsgOffer:
		job, err := r.job(depth + 1)
		return engine.MsgOffer{Job: job}, err
	case vMsgAccept:
		var m engine.MsgAccept
		if m.JobID, err = r.str(); err != nil {
			return nil, err
		}
		if m.Worker, err = r.str(); err != nil {
			return nil, err
		}
		return m, nil
	case vMsgReject:
		var m engine.MsgReject
		if m.JobID, err = r.str(); err != nil {
			return nil, err
		}
		if m.Worker, err = r.str(); err != nil {
			return nil, err
		}
		return m, nil
	case vMsgRequestJob:
		var m engine.MsgRequestJob
		if m.Worker, err = r.str(); err != nil {
			return nil, err
		}
		if m.CachedKeys, err = r.strSlice(); err != nil {
			return nil, err
		}
		strikes, err := r.ivarint()
		if err != nil {
			return nil, err
		}
		if strikes < math.MinInt32 || strikes > math.MaxInt32 {
			return nil, fmt.Errorf("wire: strikes %d out of range", strikes)
		}
		m.Strikes = int(strikes)
		return m, nil
	case vMsgNoWork:
		backoff, err := r.duration()
		return engine.MsgNoWork{Backoff: backoff}, err
	case vMsgCacheEvict:
		var m engine.MsgCacheEvict
		if m.Worker, err = r.str(); err != nil {
			return nil, err
		}
		if m.Keys, err = r.strSlice(); err != nil {
			return nil, err
		}
		return m, nil
	case vMsgJobDone:
		var m engine.MsgJobDone
		if m.JobID, err = r.str(); err != nil {
			return nil, err
		}
		if m.Worker, err = r.str(); err != nil {
			return nil, err
		}
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			m.NewJobs = make([]*engine.Job, n)
			for i := range m.NewJobs {
				if m.NewJobs[i], err = r.job(depth + 1); err != nil {
					return nil, err
				}
			}
		}
		if n, err = r.count(); err != nil {
			return nil, err
		}
		if n > 0 {
			m.Results = make([]any, n)
			for i := range m.Results {
				if m.Results[i], err = r.value(depth + 1); err != nil {
					return nil, err
				}
			}
		}
		if m.Failed, err = r.bool(); err != nil {
			return nil, err
		}
		if m.Error, err = r.str(); err != nil {
			return nil, err
		}
		return m, nil
	case vMsgEmit:
		var m engine.MsgEmit
		if m.Job, err = r.job(depth + 1); err != nil {
			return nil, err
		}
		if m.Worker, err = r.str(); err != nil {
			return nil, err
		}
		return m, nil
	case vMsgStop:
		return engine.MsgStop{}, nil
	case vMsgDrain:
		return engine.MsgDrain{}, nil
	case vMsgLeave:
		worker, err := r.str()
		return engine.MsgLeave{Worker: worker}, err
	case vMsgWorkerDead:
		worker, err := r.str()
		return engine.MsgWorkerDead{Worker: worker}, err
	case vString:
		return r.str()
	case vInt:
		v, err := r.ivarint()
		if err != nil {
			return nil, err
		}
		if v < math.MinInt || v > math.MaxInt {
			return nil, fmt.Errorf("wire: int %d out of range", v)
		}
		return int(v), nil
	case vInt64:
		return r.ivarint()
	case vFloat64:
		return r.float()
	case vBool:
		return r.bool()
	case vBytes:
		return r.bytes()
	case vStringSlice:
		return r.strSlice()
	case vDuration:
		return r.duration()
	case vGob:
		return nil, fmt.Errorf("wire: value tag %d (embedded gob) is retired", tag)
	}
	return nil, fmt.Errorf("wire: unknown value tag %d", tag)
}

func (r *reader) duration() (time.Duration, error) {
	v, err := r.ivarint()
	return time.Duration(v), err
}

func (r *reader) strSlice() ([]string, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	ss := make([]string, n)
	for i := range ss {
		if ss[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	return ss, nil
}

func (r *reader) job(depth int) (*engine.Job, error) {
	if depth > maxValueDepth {
		return nil, fmt.Errorf("wire: value nesting exceeds %d levels", maxValueDepth)
	}
	present, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch present {
	case 0:
		return nil, nil
	case 1:
	default:
		return nil, fmt.Errorf("wire: invalid job presence byte %d", present)
	}
	j := &engine.Job{}
	if j.ID, err = r.str(); err != nil {
		return nil, err
	}
	if j.Stream, err = r.str(); err != nil {
		return nil, err
	}
	if j.DataKey, err = r.str(); err != nil {
		return nil, err
	}
	if j.DataSizeMB, err = r.float(); err != nil {
		return nil, err
	}
	if j.ComputeMB, err = r.float(); err != nil {
		return nil, err
	}
	if j.CostHint, err = r.duration(); err != nil {
		return nil, err
	}
	if j.Session, err = r.str(); err != nil {
		return nil, err
	}
	if j.Payload, err = r.value(depth + 1); err != nil {
		return nil, err
	}
	return j, nil
}

// envelope encoding: route fields, the broker timestamp, the payload.

func appendEnvelope(dst []byte, env *broker.Envelope) ([]byte, error) {
	dst = appendString(dst, env.From)
	dst = appendString(dst, env.To)
	dst = appendString(dst, env.Topic)
	dst = appendTime(dst, env.SentAt)
	return appendValue(dst, env.Payload, 0)
}

func (r *reader) envelope(env *broker.Envelope) error {
	var err error
	if env.From, err = r.str(); err != nil {
		return err
	}
	if env.To, err = r.str(); err != nil {
		return err
	}
	if env.Topic, err = r.str(); err != nil {
		return err
	}
	if env.SentAt, err = r.time(); err != nil {
		return err
	}
	env.Payload, err = r.value(0)
	return err
}
