package wire

import (
	"math"
	"time"

	"crossflow/internal/engine"
)

// Value tags. Tags 1–29 are the engine protocol (fixed layouts — the
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

// value walks one tagged payload value: its tag byte, then the layout
// that tag names.
func (c *codec) value(p *any, depth int) {
	switch {
	case c.err != nil:
	case depth > maxValueDepth:
		c.fail("value nesting exceeds %d levels", maxValueDepth)
	case c.dec:
		c.decodeValue(p, depth)
	default:
		c.encodeValue(*p, depth)
	}
}

// encodeValue picks v's tag by its type and walks its layout.
func (c *codec) encodeValue(v any, depth int) {
	tag := func(t byte) { c.buf = append(c.buf, t) }
	switch x := v.(type) {
	case nil:
		tag(vNil)
	case *engine.Job:
		tag(vJob)
		c.job(&x, depth+1)
	case engine.MsgRegister:
		tag(vMsgRegister)
		c.msgRegister(&x)
	case engine.MsgRegisterAck:
		tag(vMsgRegisterAck)
	case engine.MsgBidRequest:
		tag(vMsgBidRequest)
		c.msgBidRequest(&x, depth+1)
	case engine.MsgBid:
		tag(vMsgBid)
		c.msgBid(&x)
	case engine.MsgAssign:
		tag(vMsgAssign)
		c.msgAssign(&x, depth+1)
	case engine.MsgOffer:
		tag(vMsgOffer)
		c.msgOffer(&x, depth+1)
	case engine.MsgAccept:
		tag(vMsgAccept)
		c.msgAccept(&x)
	case engine.MsgReject:
		tag(vMsgReject)
		c.msgReject(&x)
	case engine.MsgRequestJob:
		tag(vMsgRequestJob)
		c.msgRequestJob(&x)
	case engine.MsgNoWork:
		tag(vMsgNoWork)
		c.msgNoWork(&x)
	case engine.MsgCacheEvict:
		tag(vMsgCacheEvict)
		c.msgCacheEvict(&x)
	case engine.MsgJobDone:
		tag(vMsgJobDone)
		c.msgJobDone(&x, depth+1)
	case engine.MsgEmit:
		tag(vMsgEmit)
		c.msgEmit(&x, depth+1)
	case engine.MsgStop:
		tag(vMsgStop)
	case engine.MsgDrain:
		tag(vMsgDrain)
	case engine.MsgLeave:
		tag(vMsgLeave)
		c.msgLeave(&x)
	case engine.MsgWorkerDead:
		tag(vMsgWorkerDead)
		c.msgWorkerDead(&x)
	case string:
		tag(vString)
		c.str(&x)
	case int:
		tag(vInt)
		c.int(&x, math.MinInt, math.MaxInt, "int")
	case int64:
		tag(vInt64)
		c.varint(&x)
	case float64:
		tag(vFloat64)
		c.f64(&x)
	case bool:
		tag(vBool)
		c.boolean(&x, "bool")
	case []byte:
		tag(vBytes)
		c.bytes(&x)
	case []string:
		tag(vStringSlice)
		c.strs(&x)
	case time.Duration:
		tag(vDuration)
		c.dur(&x)
	default:
		c.fail("no encoder for payload type %T", v)
	}
}

// decodeValue reads a tag and walks the layout it names into a fresh
// value of that type.
func (c *codec) decodeValue(p *any, depth int) {
	var tag byte
	c.u8(&tag)
	if c.err != nil {
		return
	}
	switch tag {
	case vNil:
		*p = nil
	case vJob:
		var j *engine.Job
		c.job(&j, depth+1)
		*p = j
	case vMsgRegister:
		var m engine.MsgRegister
		c.msgRegister(&m)
		*p = m
	case vMsgRegisterAck:
		*p = engine.MsgRegisterAck{}
	case vMsgBidRequest:
		var m engine.MsgBidRequest
		c.msgBidRequest(&m, depth+1)
		*p = m
	case vMsgBid:
		var m engine.MsgBid
		c.msgBid(&m)
		*p = m
	case vMsgAssign:
		var m engine.MsgAssign
		c.msgAssign(&m, depth+1)
		*p = m
	case vMsgOffer:
		var m engine.MsgOffer
		c.msgOffer(&m, depth+1)
		*p = m
	case vMsgAccept:
		var m engine.MsgAccept
		c.msgAccept(&m)
		*p = m
	case vMsgReject:
		var m engine.MsgReject
		c.msgReject(&m)
		*p = m
	case vMsgRequestJob:
		var m engine.MsgRequestJob
		c.msgRequestJob(&m)
		*p = m
	case vMsgNoWork:
		var m engine.MsgNoWork
		c.msgNoWork(&m)
		*p = m
	case vMsgCacheEvict:
		var m engine.MsgCacheEvict
		c.msgCacheEvict(&m)
		*p = m
	case vMsgJobDone:
		var m engine.MsgJobDone
		c.msgJobDone(&m, depth+1)
		*p = m
	case vMsgEmit:
		var m engine.MsgEmit
		c.msgEmit(&m, depth+1)
		*p = m
	case vMsgStop:
		*p = engine.MsgStop{}
	case vMsgDrain:
		*p = engine.MsgDrain{}
	case vMsgLeave:
		var m engine.MsgLeave
		c.msgLeave(&m)
		*p = m
	case vMsgWorkerDead:
		var m engine.MsgWorkerDead
		c.msgWorkerDead(&m)
		*p = m
	case vString:
		var s string
		c.str(&s)
		*p = s
	case vInt:
		var n int
		c.int(&n, math.MinInt, math.MaxInt, "int")
		*p = n
	case vInt64:
		var n int64
		c.varint(&n)
		*p = n
	case vFloat64:
		var f float64
		c.f64(&f)
		*p = f
	case vBool:
		var b bool
		c.boolean(&b, "bool")
		*p = b
	case vBytes:
		var b []byte
		c.bytes(&b)
		*p = b
	case vStringSlice:
		var ss []string
		c.strs(&ss)
		*p = ss
	case vDuration:
		var d time.Duration
		c.dur(&d)
		*p = d
	case vGob:
		c.fail("value tag %d (embedded gob) is retired", tag)
	default:
		c.fail("unknown value tag %d", tag)
	}
}

// job walks a job pointer, nil included (a bid request for a job can
// in principle carry none), behind a presence byte.
func (c *codec) job(p **engine.Job, depth int) {
	if depth > maxValueDepth {
		c.fail("value nesting exceeds %d levels", maxValueDepth)
		return
	}
	present := *p != nil
	c.boolean(&present, "job presence")
	if !present || c.err != nil {
		return
	}
	if c.dec {
		*p = new(engine.Job)
	}
	j := *p
	c.str(&j.ID)
	c.str(&j.Stream)
	c.str(&j.DataKey)
	c.f64(&j.DataSizeMB)
	c.f64(&j.ComputeMB)
	c.dur(&j.CostHint)
	c.str(&j.Session)
	c.value(&j.Payload, depth+1)
}

// One walk per engine message: its only field list. depth is the
// nesting level of the jobs and values a message carries.

func (c *codec) msgRegister(m *engine.MsgRegister) { c.str(&m.Worker) }

func (c *codec) msgBidRequest(m *engine.MsgBidRequest, depth int) { c.job(&m.Job, depth) }

func (c *codec) msgBid(m *engine.MsgBid) {
	c.str(&m.JobID)
	c.str(&m.Worker)
	c.dur(&m.Estimate)
	c.dur(&m.JobCost)
	c.boolean(&m.Local, "bool")
}

func (c *codec) msgAssign(m *engine.MsgAssign, depth int) {
	c.job(&m.Job, depth)
	c.dur(&m.EstimatedCost)
}

func (c *codec) msgOffer(m *engine.MsgOffer, depth int) { c.job(&m.Job, depth) }

func (c *codec) msgAccept(m *engine.MsgAccept) {
	c.str(&m.JobID)
	c.str(&m.Worker)
}

func (c *codec) msgReject(m *engine.MsgReject) {
	c.str(&m.JobID)
	c.str(&m.Worker)
}

func (c *codec) msgRequestJob(m *engine.MsgRequestJob) {
	c.str(&m.Worker)
	c.strs(&m.CachedKeys)
	c.int(&m.Strikes, math.MinInt32, math.MaxInt32, "strikes")
}

func (c *codec) msgNoWork(m *engine.MsgNoWork) { c.dur(&m.Backoff) }

func (c *codec) msgCacheEvict(m *engine.MsgCacheEvict) {
	c.str(&m.Worker)
	c.strs(&m.Keys)
}

func (c *codec) msgJobDone(m *engine.MsgJobDone, depth int) {
	c.str(&m.JobID)
	c.str(&m.Worker)
	for i, n := 0, collection(c, &m.NewJobs); i < n; i++ {
		c.job(&m.NewJobs[i], depth)
	}
	for i, n := 0, collection(c, &m.Results); i < n; i++ {
		c.value(&m.Results[i], depth)
	}
	c.boolean(&m.Failed, "bool")
	c.str(&m.Error)
}

func (c *codec) msgEmit(m *engine.MsgEmit, depth int) {
	c.job(&m.Job, depth)
	c.str(&m.Worker)
}

func (c *codec) msgLeave(m *engine.MsgLeave) { c.str(&m.Worker) }

func (c *codec) msgWorkerDead(m *engine.MsgWorkerDead) { c.str(&m.Worker) }
