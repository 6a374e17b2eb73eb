let load_avg_max = 47742

(* The kernel's runnable_avg_yN_inv table: y^k in 0.32 fixed point,
   with y^32 = 1/2.  Values as in kernel/sched/pelt.c. *)
let yn_inv =
  [|
    0xffffffffl; 0xfa83b2dal; 0xf5257d14l; 0xefe4b99al; 0xeac0c6e6l;
    0xe5b906e6l; 0xe0ccdeebl; 0xdbfbb796l; 0xd744fcc9l; 0xd2a81d91l;
    0xce248c14l; 0xc9b9bd85l; 0xc5672a10l; 0xc12c4cc9l; 0xbd08a39el;
    0xb8fbaf46l; 0xb504f333l; 0xb123f581l; 0xad583ee9l; 0xa9a15ab4l;
    0xa5fed6a9l; 0xa2704302l; 0x9ef5325fl; 0x9b8d39b9l; 0x9837f050l;
    0x94f4efa8l; 0x91c3d373l; 0x8ea4398al; 0x8b95c1e3l; 0x88980e80l;
    0x85aac367l; 0x82cd8698l;
  |]

let decay_multiplier k =
  if k < 0 || k > 31 then invalid_arg "Pelt.decay_multiplier: k outside [0,31]";
  yn_inv.(k)

(* v·y^p: halve per full 32 periods, then one fixed-point multiply by
   the table entry — exactly the kernel's decay_load(). *)
let decay_load v ~periods =
  if periods < 0 then invalid_arg "Pelt.decay_load: negative periods";
  if periods = 0 then v (* y^0 is exactly 1; skip the truncating multiply *)
  else if periods >= 2048 then 0 (* > 63 halvings: underflows to zero *)
  else begin
    let v = v asr (periods / 32) in
    let inv = Int64.logand (Int64.of_int32 (decay_multiplier (periods mod 32))) 0xffffffffL in
    Int64.to_int (Int64.shift_right_logical (Int64.mul (Int64.of_int v) inv) 32)
  end
