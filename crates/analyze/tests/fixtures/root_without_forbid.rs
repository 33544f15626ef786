pub mod model;
