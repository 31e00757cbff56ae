type t = unit

let create ~jobs = if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1"
let map () f xs = List.map f xs
let shutdown () = ()
