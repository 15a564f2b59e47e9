let name = "HCPA"

let allocate ctx = Common.growth_loop ~gain:Common.Absolute ctx
