package remote

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"

	"bioopera/internal/transport"
)

// outMsg is a pooled outbound message: the Message to fill, the buffer it
// is marshaled into and an encoder bound to that buffer, so sending
// allocates nothing beyond what encoding/json does for the values.
type outMsg struct {
	Message
	buf bytes.Buffer
	enc *json.Encoder
}

var outMsgs = sync.Pool{New: func() any {
	o := new(outMsg)
	o.enc = json.NewEncoder(&o.buf)
	return o
}}

func newOutMsg() *outMsg { return outMsgs.Get().(*outMsg) }

// send marshals the message into one frame of the given kind, queues it
// without blocking (transport.Conn.Send) and recycles o.
func (o *outMsg) send(c *transport.Conn, kind byte) error {
	err := o.marshal()
	if err == nil {
		err = c.Send(kind, o.buf.Bytes())
	}
	o.recycle()
	return err
}

// sendWait is send with back-pressure (transport.Conn.SendWait).
func (o *outMsg) sendWait(c *transport.Conn, kind byte) error {
	err := o.marshal()
	if err == nil {
		err = c.SendWait(kind, o.buf.Bytes())
	}
	o.recycle()
	return err
}

func (o *outMsg) marshal() error {
	o.buf.Reset()
	return o.enc.Encode(&o.Message)
}

func (o *outMsg) recycle() {
	o.Message = Message{} // the pool must not pin inputs and outputs
	outMsgs.Put(o)
}

// inDecoder decodes the JSON bodies of one connection's frames with a
// single long-lived json.Decoder fed one body at a time: unlike
// json.Unmarshal it keeps its scanner and decode state between messages,
// which is seven allocations per message at the worker link's two frames
// per activity.
type inDecoder struct {
	body []byte
	dec  *json.Decoder
}

func newInDecoder() *inDecoder {
	d := new(inDecoder)
	d.dec = json.NewDecoder(d)
	return d
}

// Read feeds the decoder the rest of the current frame body.
func (d *inDecoder) Read(p []byte) (int, error) {
	if len(d.body) == 0 {
		return 0, io.EOF
	}
	n := copy(p, d.body)
	d.body = d.body[n:]
	return n, nil
}

// decode parses one frame body into m. An error poisons the decoder; the
// caller hangs the connection up.
func (d *inDecoder) decode(body []byte, m *Message) error {
	d.body = body
	return d.dec.Decode(m)
}
