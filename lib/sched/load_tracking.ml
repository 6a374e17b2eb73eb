module Affine = Horse_coalesce.Coalesce.Affine
module Precomputed = Horse_coalesce.Coalesce.Precomputed

type t = { mutable load : float; update : Affine.t; mutable updates : int }

let create ?(update = Affine.pelt) () = { load = 0.0; update; updates = 0 }

let load t = t.load

let on_enqueue t =
  t.load <- Affine.apply t.update t.load;
  t.updates <- t.updates + 1

let on_enqueue_coalesced t pre =
  t.load <- Precomputed.apply pre t.load;
  t.updates <- t.updates + 1

let on_dequeue t =
  t.load <- Float.max 0.0 (t.load -. t.update.Affine.beta);
  t.updates <- t.updates + 1

let decay t ~periods =
  if periods < 0 then invalid_arg "Load_tracking.decay: negative periods";
  t.load <- t.load *. (t.update.Affine.alpha ** float_of_int periods)

let full_scale t = t.update.Affine.beta /. (1.0 -. t.update.Affine.alpha)

let utilisation t = Float.min 1.0 (Float.max 0.0 (t.load /. full_scale t))

let updates t = t.updates
