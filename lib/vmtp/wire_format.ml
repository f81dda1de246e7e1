type kind = Request | Response | Ack

type t = {
  src_entity : int64;
  dst_entity : int64;
  transaction : int;
  kind : kind;
  index : int;
  group_size : int;
  acks_response : bool;
  delivery_mask : int32;
  timestamp_ms : int;
  data : bytes;
}

let header_size = 28
let trailer_size = 8
let max_group = 32

let kind_to_int = function Request -> 0 | Response -> 1 | Ack -> 2

let kind_of_int = function
  | 0 -> Request
  | 1 -> Response
  | 2 -> Ack
  | _ -> invalid_arg "Wire_format: bad kind"

let flag_acks_response = 0x1

let encode t =
  if t.index < 0 || t.index >= max_group then invalid_arg "Wire_format: index";
  if t.group_size < 1 || t.group_size > max_group then
    invalid_arg "Wire_format: group size";
  let b = Bytes.create (header_size + Bytes.length t.data + trailer_size) in
  let w = Wire.Buf.writer_onto b ~off:0 ~len:(Bytes.length b) in
  Wire.Buf.put_u64 w t.src_entity;
  Wire.Buf.put_u64 w t.dst_entity;
  Wire.Buf.put_u32_int w (t.transaction land 0xFFFFFFFF);
  Wire.Buf.put_u8 w (kind_to_int t.kind);
  Wire.Buf.put_u8 w t.index;
  Wire.Buf.put_u8 w t.group_size;
  Wire.Buf.put_u8 w (if t.acks_response then flag_acks_response else 0);
  Wire.Buf.put_u32 w t.delivery_mask;
  Wire.Buf.put_bytes w t.data;
  Wire.Buf.put_u32_int w (t.timestamp_ms land 0xFFFFFFFF);
  Wire.Buf.put_u16 w 0 (* checksum placeholder *);
  Wire.Buf.put_u16 w 0 (* pad *);
  let sum = Ipbase.Checksum.compute b in
  Bytes.set_uint16_be b (Bytes.length b - 4) sum;
  b

let decode b =
  if Bytes.length b < header_size + trailer_size then
    invalid_arg "Wire_format: short packet";
  let r = Wire.Buf.reader_of_bytes b in
  let src_entity = Wire.Buf.get_u64 r in
  let dst_entity = Wire.Buf.get_u64 r in
  let transaction = Wire.Buf.get_u32_int r in
  let kind = kind_of_int (Wire.Buf.get_u8 r) in
  let index = Wire.Buf.get_u8 r in
  let group_size = Wire.Buf.get_u8 r in
  let flags = Wire.Buf.get_u8 r in
  let delivery_mask = Wire.Buf.get_u32 r in
  let data_len = Bytes.length b - header_size - trailer_size in
  let data = Wire.Buf.get_bytes r data_len in
  let timestamp_ms = Wire.Buf.get_u32_int r in
  {
    src_entity;
    dst_entity;
    transaction;
    kind;
    index;
    group_size;
    acks_response = flags land flag_acks_response <> 0;
    delivery_mask;
    timestamp_ms;
    data;
  }

let checksum_ok b =
  if Bytes.length b < header_size + trailer_size then false
  else begin
    let copy = Bytes.copy b in
    let sum_field = Bytes.get_uint16_be copy (Bytes.length copy - 4) in
    Bytes.set_uint16_be copy (Bytes.length copy - 4) 0;
    Ipbase.Checksum.compute copy = sum_field
  end

let mask_with m i = Int32.logor m (Int32.shift_left 1l i)
let mask_has m i = Int32.logand m (Int32.shift_left 1l i) <> 0l

let mask_full n =
  if n >= 32 then -1l else Int32.sub (Int32.shift_left 1l n) 1l

let mask_missing m group_size =
  List.filter (fun i -> not (mask_has m i)) (List.init group_size (fun i -> i))
